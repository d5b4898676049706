"""Tests of the benchmark itself, on the tiny size of every workload.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import revivalwalk.engine
import run
import tracing
from revivalwalk.states import WalkState
from workloads import WORKLOADS

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(tmp_path, name, trace):
    return run.run_benchmark(name, seed=7, seconds=0.01, trace=trace, size="tiny",
                             out_dir=tmp_path)


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, name, trace):
    result = _tiny(tmp_path, name, trace)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_output_raises_error_rate(tmp_path, monkeypatch, name):
    shift = revivalwalk.engine.apply_shift

    def lossy_shift(state, table):
        moved = shift(state, table)
        return WalkState(moved.d, moved.n, {p: v * (1 + 1e-6) for p, v in moved.items()})

    monkeypatch.setattr(revivalwalk.engine, "apply_shift", lossy_shift)
    report = _tiny(tmp_path, name, 0)
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert report["notes"]["error_rate"] == 1.0


def test_tracer_restores_hooks_and_reports_absent_ones(monkeypatch):
    original = revivalwalk.engine.step
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        tracing.Hook("engine", "no_such_step", "engine.gone_s", "engine.gone_calls"),))
    tracer = tracing.Tracer()
    with tracer:
        assert revivalwalk.engine.step is not original
        assert revivalwalk.records.step is revivalwalk.engine.step
    assert revivalwalk.engine.step is original
    assert tracer.absent == ["engine.no_such_step"]


def test_self_times_and_bookkeeping_add_up_to_the_operation(tmp_path):
    workload = WORKLOADS["ballistic-period"](3, "tiny", tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        _, wall = tracer.operation(workload.op)
    inner = sum(tracer.self_times().values()) + tracer.bookkeeping
    # The root span's own open/close bookkeeping lies outside its wall time.
    assert wall <= inner <= wall + 1e-3
    assert tracer.counts["engine.steps"] == workload.params["steps"]
    assert tracer.counts["engine.site_steps"] == workload.site_steps


def test_same_seed_gives_same_inputs(tmp_path):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workload = WORKLOADS["scattered-record"](11, "tiny", tmp_path / sub)
        texts.append(workload.configs[0].read_text(encoding="utf-8"))
    assert texts[0] == texts[1]
    assert np.isclose(sum(e["amp_re"] ** 2 + e["amp_im"] ** 2
                          for e in json.loads(texts[0])["initial"]), 1.0)
