import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_sparse_state, random_zero_sum_row
from revivalwalk import (
    CoinSpec,
    InitialEntry,
    RevivalMode,
    WalkConfig,
    build_instance,
    detect_revival,
    evolve,
    golden_config,
    parse_config,
    random_cyclic_phases,
    run_spectrum,
    run_walk,
    trajectory,
)
from revivalwalk.golden import golden_config_text


def swap_walk_config(**overrides):
    base = {
        "d": 1,
        "n": 2,
        "coin": {"kind": "cyclic", "phases": [0.0, 0.0]},
        "shifts": [[-1, 1]],
        "initial": [{"position": [0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}],
        "max_steps": 6,
    }
    base.update(overrides)
    return parse_config(json.dumps(base))


def walk_outputs(config):
    """run_walk's record, parsed, and its probability CSV text."""
    out, csv = io.StringIO(), io.StringIO()
    run_walk(config, out, csv)
    return json.loads(out.getvalue()), csv.getvalue()


def walk_record(config):
    return walk_outputs(config)[0]


def test_run_walk_zero_steps_keeps_only_the_initial_state():
    record = walk_record(swap_walk_config(max_steps=0))
    assert record["period"] is None
    assert len(record["steps"]) == 1
    assert record["steps"][0]["t"] == 0
    assert record["fidelity_series"] == [1.0]
    assert record["distance_series"] == [0.0]


def test_run_walk_record_covers_every_step_past_the_revival():
    record = walk_record(swap_walk_config())
    assert record["period"] == 2
    assert [entry["t"] for entry in record["steps"]] == list(range(7))
    assert len(record["fidelity_series"]) == 7
    # states keep being dumped after the revival
    assert record["steps"][6]["state"]


def test_run_walk_series_text_equals_one_encoding_across_chunks():
    raw = json.loads(golden_config_text(2))
    raw["max_steps"] = 600
    config = parse_config(json.dumps(raw))
    out = io.StringIO()
    run_walk(config, out)
    walk = list(trajectory(build_instance(config), 600, config.revival_mode))
    series = {key: json.dumps([row[i] for row in walk], separators=(",", ":"))
              for key, i in (("fidelity_series", 2), ("distance_series", 3))}
    tail = ",".join(f'"{key}":{text}' for key, text in series.items()) + "}\n"
    assert out.getvalue().endswith(tail)
    assert len(json.loads(out.getvalue())["fidelity_series"]) == 601


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(2, 6),
    max_steps=st.integers(0, 12),
    mode=st.sampled_from(list(RevivalMode)),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_walk_and_detect_revival_read_one_trajectory(d, n, max_steps, mode, seed):
    rng = np.random.default_rng(seed)
    initial = random_sparse_state(d, n, rng)
    config = WalkConfig(
        d=d,
        n=n,
        coin=CoinSpec(kind="cyclic", phases=tuple(random_cyclic_phases(n, rng))),
        shifts=tuple(tuple(random_zero_sum_row(n, rng)) for _ in range(d)),
        initial=tuple(
            InitialEntry(pos, j + 1, float(amp.real), float(amp.imag))
            for pos, vec in initial.items()
            for j, amp in enumerate(vec)
            if amp != 0
        ),
        max_steps=max_steps,
        revival_mode=mode,
    )
    instance = build_instance(config)
    record = walk_record(config)
    report = detect_revival(instance, max_steps, mode)
    assert record["period"] == report.period
    shared = len(report.fidelity_series)
    assert record["fidelity_series"][:shared] == list(report.fidelity_series)
    assert record["distance_series"][:shared] == list(report.distance_series)
    for entry in record["steps"]:
        expected = evolve(instance, entry["t"])
        dumped = {
            (tuple(row["position"]), row["coin"] - 1): complex(row["re"], row["im"])
            for row in entry["state"]
        }
        support = {(pos, j) for pos, vec in expected.items() for j in range(n) if vec[j] != 0}
        for pos, j in support | set(dumped):
            assert abs(dumped.get((pos, j), 0.0) - expected.amplitude(pos, j)) <= 1e-12


def test_run_walk_golden_plane_walk():
    record = walk_record(golden_config(3))
    assert record["period"] == 3
    t3 = {(tuple(r["position"]), r["coin"]): complex(r["re"], r["im"])
          for r in record["steps"][3]["state"]}
    t0 = {(tuple(r["position"]), r["coin"]): complex(r["re"], r["im"])
          for r in record["steps"][0]["state"]}
    assert set(t3) == set(t0)
    assert all(abs(t3[key] - t0[key]) <= 1e-12 for key in t0)


def test_state_dumps_are_sorted_and_one_based():
    record = walk_record(golden_config(2))
    rows = record["steps"][0]["state"]
    assert [tuple(r["position"]) for r in rows] == [(1,), (2,), (3,)]
    assert [r["coin"] for r in rows] == [3, 2, 1]


def test_probability_csv_rows_sum_to_one_per_step():
    text = walk_outputs(golden_config(2))[1]
    lines = text.strip().split("\n")
    assert lines[0] == "step,x1,probability"
    sums: dict[str, float] = {}
    for line in lines[1:]:
        t, _, p = line.split(",")
        sums[t] = sums.get(t, 0.0) + float(p)
    for total in sums.values():
        assert abs(total - 1.0) <= 1e-9


def test_probability_csv_two_dimensional_header():
    text = walk_outputs(golden_config(3))[1]
    assert text.startswith("step,x1,x2,probability\n")


def test_run_spectrum_golden_flags_and_shape():
    record = run_spectrum(golden_config(2), samples=8)
    assert record["schema_version"] == 1
    assert record["k_independent"] and record["matches_roots_of_unity"]
    assert len(record["k_samples"]) == 8
    assert len(record["eigenvalues"][0]) == 3
    entry = record["eigenvalues"][0][0]
    assert math.isclose(entry["re"] ** 2 + entry["im"] ** 2, 1.0, abs_tol=1e-9)


def test_run_spectrum_seed_controls_sampling():
    a = run_spectrum(golden_config(2), samples=8, seed=1)
    b = run_spectrum(golden_config(2), samples=8, seed=1)
    c = run_spectrum(golden_config(2), samples=8, seed=2)
    assert a == b
    assert a["k_samples"] != c["k_samples"]


def test_run_spectrum_accepts_dispersive_coins():
    config = parse_config(
        json.dumps(
            {
                "d": 1,
                "n": 2,
                "coin": {"kind": "general_1d", "theta": "pi/4", "phi1": 0, "phi2": 0},
                "shifts": [[-1, 1]],
                "initial": [
                    {"position": [0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}
                ],
            }
        )
    )
    record = run_spectrum(config, samples=10)
    assert record["k_independent"] is False
