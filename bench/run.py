"""revivalwalk benchmark: one workload, one closed-loop client, one process.

Usage (from the repository root)::

    python3 bench/run.py --workload ballistic-period --seed 1 --seconds 25 --trace 0

Each operation is the CLI call a user would type, made in-process with
``revivalwalk.cli.main``; the next one starts when the previous returns.
Inputs come from ``--seed``; every output is checked against a reference
computed before timing. One untimed warm-up operation runs under
tracemalloc for the peak memory.

``--trace 0`` runs at least ``--seconds`` of operation time and at least
MIN_OPS operations, each followed by one set-up batch (config load plus
``build_instance``, repeated until it has run SETUP_BATCH_S). The gated
times are the slowest operation and the slowest set-up of the run. On a
shared machine whose speed flips between a fast and a slow state for tens
of seconds, the median and mid percentiles follow the mix of states in a
run, while the slow state's ceiling recurs in every run; the median and the
highest percentile with ten samples beyond it are printed as well.
``--trace 1`` alternates untraced operations with operations traced by
``tracing.py`` and reports the per-layer split and the tracing overhead;
spans go to ``bench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"

#: BLAS threads, set before numpy loads (never more than the machine has).
BLAS_THREADS = 1
#: Timed operations per run at least, so that the printed highest
#: percentile with ten samples beyond it is at least the 75th.
MIN_OPS = 40
MIN_TRACED = 3
#: One set-up batch repeats set-up until it has run this long.
SETUP_BATCH_S = 0.02

END_TO_END = {
    "wall_max_s": "s",
    "site_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "output_bytes": "bytes",
}


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.extend(failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _checked(workload, tally: Tally, call):
    """Run one operation through ``call`` and check it.

    ``call(op)`` returns (result, seconds). A raising operation counts as
    failed and its time is kept.
    """
    workload.clear()
    gc.collect()
    started = time.perf_counter()
    try:
        result, elapsed = call(workload.op)
    except Exception as exc:  # any program failure is a failed operation
        tally.record([f"operation raised {type(exc).__name__}: {exc}"])
        return time.perf_counter() - started, None
    try:
        failures = workload.check(result)
    except Exception as exc:  # an unreadable output is a wrong output
        failures = [f"output check raised {type(exc).__name__}: {exc}"]
    tally.record(failures)
    return elapsed, workload.output_bytes()


def _plain(op):
    start = time.perf_counter()
    result = op()
    return result, time.perf_counter() - start


def _timed_loop(workload, seconds: float, tally: Tally):
    """Closed loop until ``seconds`` of operation time and MIN_OPS operations.

    One set-up batch follows every operation, so set-up is sampled across
    the whole run rather than in one stretch of it.
    """
    times, sizes, setups = [], [], []
    while sum(times) < seconds or len(times) < MIN_OPS:
        elapsed, size = _checked(workload, tally, _plain)
        times.append(elapsed)
        if size is not None:
            sizes.append(size)
        setups.append(_setup_batch(workload))
    return times, sizes, setups


def _paired_loop(workload, seconds: float, tally: Tally):
    """Alternate untraced and traced operations for ``seconds`` of operation time.

    Pairing the two kinds makes both see the same machine conditions, so
    their difference is the tracing overhead rather than drift.
    """
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    while sum(untraced) + sum(traced) < seconds or len(traced) < MIN_TRACED:
        untraced.append(_checked(workload, tally, _plain)[0])
        with tracer:
            traced.append(_checked(workload, tally, tracer.operation)[0])
    return untraced, traced, tracer


def _setup_batch(workload) -> float:
    """Time of one set-up, from a batch that repeats it for SETUP_BATCH_S."""
    gc.collect()
    count, start = 0, time.perf_counter()
    while True:
        workload.setup()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_BATCH_S:
            return elapsed / count


def _warm_up(workload, tally: Tally) -> float:
    """One untimed operation under tracemalloc; returns its peak in MB."""
    peaks = []

    def traced_memory(op):
        tracemalloc.start()
        try:
            result = op()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return result, 0.0

    _checked(workload, tally, traced_memory)
    return peaks[0] / 1e6 if peaks else 0.0


def highest_percentile(times: list[float]) -> tuple[float, float] | None:
    """(level, value) of the highest percentile with ten samples beyond it."""
    rank = len(times) - 10
    if rank < 1:
        return None
    return rank / len(times), sorted(times)[rank - 1]


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload) -> dict:
    import numpy as np

    import revivalwalk

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": workload.params["seed"],
        "params": workload.params,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": git_commit(ROOT),
        "revivalwalk": getattr(revivalwalk, "__version__", None),
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: int,
                  size: str = "full", out_dir: Path = RESULTS) -> dict:
    """Run one workload and return the report (see ``main`` for printing)."""
    from tracing import metric_units, per_layer_metrics
    from workloads import WORKLOADS

    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    notes: dict = {}
    try:
        workload = WORKLOADS[name](seed, size, workdir)
        notes["provenance"] = provenance(workload)
        if trace:
            _checked(workload, tally, _plain)  # warm-up
            untraced, traced, tracer = _paired_loop(workload, seconds, tally)
            values = per_layer_metrics(tracer, untraced, traced)
            units = metric_units()
            notes["absent"] = tracer.absent
            spans = out_dir / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans)
            notes["spans"] = str(spans)
            notes["ops"] = {"untraced": len(untraced), "traced": len(traced)}
            notes["op_seconds"] = {"untraced": untraced, "traced": traced}
        else:
            peak_mb = _warm_up(workload, tally)
            times, sizes, setups = _timed_loop(workload, seconds, tally)
            values = {
                "wall_max_s": max(times),
                "site_steps_per_s": workload.site_steps / max(times),
                "setup_s": max(setups),
                "peak_mem_mb": peak_mb,
                "output_bytes": statistics.median(sizes) if sizes else 0,
            }
            units = END_TO_END
            notes["wall"] = {
                "ops": len(times),
                "median_s": statistics.median(times),
                "highest_percentile": highest_percentile(times),
            }
            notes["op_seconds"] = times
            notes["setup_seconds"] = setups
            notes["site_steps_per_op"] = workload.site_steps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes["error_rate"] = tally.error_rate
    notes["failures"] = tally.messages
    report = {
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        },
        "notes": notes,
    }
    path = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def _print_report(report: dict) -> None:
    notes, result = report["notes"], report["result"]
    print("provenance " + json.dumps(notes["provenance"], sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    if "wall" in notes:
        wall = notes["wall"]
        print(f"wall_s = {wall['median_s']!r} s (median of {wall['ops']} ops)")
        if wall["highest_percentile"]:
            level, value = wall["highest_percentile"]
            print(f"wall_s p{100 * level:.0f} = {value!r} s "
                  f"(highest percentile with ten samples beyond it)")
        print(f"site_steps per op = {notes['site_steps_per_op']} count")
    else:
        print(f"ops untraced/traced = {notes['ops']}; spans in {notes['spans']}")
        print("absent hooks: " + (", ".join(notes["absent"]) or "none"))
        m = {key: metric["value"] for key, metric in result["metrics"].items()}
        gap = m["trace.self_sum_s"] - m["trace.untraced_wall_s"]
        verdict = "within" if abs(gap) <= abs(m["trace.overhead_s"]) else "outside"
        print(f"self times minus untraced wall_s = {gap!r} s, {verdict} the tracing "
              f"overhead of {m['trace.overhead_s']!r} s (bookkeeping {m['trace.bookkeeping_s']!r} s)")
    print(f"error_rate = {notes['error_rate']!r} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for message in notes["failures"]:
        print(f"failure: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ballistic-period", "scattered-record", "verify-spectrum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if not (SRC / "revivalwalk" / "__init__.py").is_file():
        print(f"bench: no revivalwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    report = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    _print_report(report)
    values = [m["value"] for m in report["result"]["metrics"].values()]
    if not all(math.isfinite(v) for v in values):
        print("bench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
