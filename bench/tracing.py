"""Span tracing for the benchmark's traced run.

The tracer wraps named public callables of the revivalwalk modules from
outside the package, in every module namespace where callers look them up
(``records`` and ``engine`` import ``step``, ``apply_shift``,
``inner_product`` and ``l2_distance`` by name). Each call records a span
(name, start, end, parent, operation id) in memory; work counts are taken
at the same boundaries. Everything is restored when tracing stops.

A layer's self time is its span minus the part its child spans cover.
Time the tracer spends on its own bookkeeping is charged to neither the
span nor its parent, so the self times of all spans of an operation plus
the bookkeeping equal the operation's traced wall time.

A hook whose module, attribute or call signature no longer exists is
reported as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from math import prod
from typing import Callable, Optional

import numpy as np

PACKAGE = "revivalwalk"


def _count_step(args, kwargs, result) -> dict:
    return {"engine.site_steps": len(args[0])}


def _count_shift(args, kwargs, result) -> dict:
    moved = sum(int(np.count_nonzero(vec)) for _, vec in args[0].items())
    return {"shifts.amps_moved": moved, "shifts.sites_out": len(result)}


def _count_oracle(args, kwargs, result) -> dict:
    instance = args[0]
    window = args[2] if len(args) > 2 else kwargs["window"]
    dim = instance.coin.n * prod(2 * int(w) + 1 for w in window)
    return {"momentum.oracle_bytes": dim * dim * np.dtype(np.complex128).itemsize}


@dataclass(frozen=True)
class Hook:
    """One traced callable: ``attr`` may be ``Class.method``."""

    module: str
    attr: str
    time_metric: str
    calls_metric: str
    count: Optional[Callable] = None


HOOKS = (
    Hook("config", "load_config", "config.load_s", "config.load_calls"),
    Hook("config", "parse_config", "config.parse_s", "config.parse_calls"),
    Hook("config", "build_instance", "config.build_instance_s", "config.build_instance_calls"),
    Hook("engine", "step", "engine.step_self_s", "engine.steps", _count_step),
    Hook("engine", "evolve", "engine.evolve_self_s", "engine.evolve_calls"),
    Hook("engine", "detect_revival", "engine.detect_revival_self_s", "engine.detect_revival_calls"),
    Hook("shifts", "apply_shift", "shifts.apply_shift_s", "shifts.apply_shift_calls", _count_shift),
    Hook("states", "WalkState.__init__", "states.init_s", "states.init_calls"),
    Hook("states", "WalkState.from_entries", "states.from_entries_s", "states.from_entries_calls"),
    Hook("states", "inner_product", "states.inner_product_s", "states.inner_product_calls"),
    Hook("states", "l2_distance", "states.l2_distance_s", "states.l2_distance_calls"),
    Hook("records", "run_walk", "records.run_walk_self_s", "records.run_walk_calls"),
    Hook("records", "probability_csv", "records.probability_csv_s", "records.probability_csv_calls"),
    Hook("records", "run_spectrum", "records.run_spectrum_self_s", "records.run_spectrum_calls"),
    Hook("cli", "main", "cli.main_self_s", "cli.main_calls"),
    Hook("cli", "_emit", "cli.serialize_s", "cli.serialize_calls"),
    Hook("momentum", "evaluate_propagator", "momentum.evaluate_propagator_s",
         "momentum.evaluate_propagator_calls"),
    Hook("momentum", "spectrum_sweep", "momentum.eigensolve_s", "momentum.spectrum_sweep_calls"),
    Hook("momentum", "spectrum_distance", "momentum.spectrum_distance_s",
         "momentum.spectrum_distance_calls"),
    Hook("momentum", "dense_oracle_evolve", "momentum.dense_oracle_s",
         "momentum.dense_oracle_calls", _count_oracle),
    Hook("golden", "reproduce_table", "golden.reproduce_table_s", "golden.reproduce_table_calls"),
)

LAYERS = ("config", "engine", "shifts", "states", "records", "cli", "momentum", "golden")

#: Work counts gathered by the hooks' counters, per operation.
COUNT_METRICS = {
    "engine.site_steps": "count",
    "shifts.amps_moved": "count",
    "momentum.oracle_bytes": "bytes",
}

#: Ratios derived from the counts: name -> (unit, numerator, denominator).
RATIO_METRICS = {
    "shifts.merge_ratio": ("ratio", "shifts.sites_out", "shifts.amps_moved"),
    "states.inits_per_step": ("ratio", "states.init_calls", "engine.steps"),
}

#: Whole-operation figures from the traced run; see per_layer_metrics.
TRACE_METRICS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.glue_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for hook in HOOKS:
        units[hook.time_metric] = "s"
        units[hook.calls_metric] = "count"
    units.update(COUNT_METRICS)
    units.update({name: spec[0] for name, spec in RATIO_METRICS.items()})
    units.update({f"layer.{layer}_s": "s" for layer in LAYERS})
    units.update(TRACE_METRICS)
    return units


def _resolve(hook: Hook):
    """(owner, attribute name, original attribute) or None when absent."""
    module = sys.modules.get(f"{PACKAGE}.{hook.module}")
    if module is None:
        try:
            module = importlib.import_module(f"{PACKAGE}.{hook.module}")
        except ImportError:
            return None
    owner = module
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if original is None or not (callable(original) or isinstance(original, classmethod)):
        return None
    return owner, name, original


class Tracer:
    """Records spans and counts while installed; restores everything on stop."""

    ROOT = "op"

    def __init__(self):
        self.clock = time.perf_counter
        # Each span: [name, start, end, parent index, op id, covered by children].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.bookkeeping = 0.0
        self.absent: list[str] = []
        self._restore: list[tuple] = []
        self._op = -1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for hook in HOOKS:
            found = _resolve(hook)
            if found is None:
                label = f"{hook.module}.{hook.attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            owner, name, original = found
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(hook, original.__func__))
                self._set(owner, name, original, wrapped)
            elif isinstance(owner, type):
                self._set(owner, name, original, self._wrap(hook, original))
            else:
                wrapped = self._wrap(hook, original)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, original, wrapped)

    def _set(self, owner, name, original, wrapped) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float, entered: float) -> None:
        """Finish a span; ``entered`` is when its wrapper began bookkeeping."""
        span = self.spans[index]
        span[1], span[2] = start, end
        self._stack.pop()
        left = self.clock()
        if span[3] >= 0:
            self.spans[span[3]][5] += left - entered
        self.bookkeeping += (left - entered) - (end - start)

    def _wrap(self, hook: Hook, func):
        tracer = self
        name = hook.time_metric

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entered = tracer.clock()
            index = tracer._open(name)
            start = tracer.clock()
            finished = False
            try:
                result = func(*args, **kwargs)
                finished = True
                return result
            finally:
                end = tracer.clock()
                tracer.counts[hook.calls_metric] += 1
                if finished and hook.count is not None:
                    tracer._add_counts(hook, args, kwargs, result)
                tracer._close(index, start, end, entered)

        return traced

    def _add_counts(self, hook: Hook, args, kwargs, result) -> None:
        try:
            counted = hook.count(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            label = f"{hook.module}.{hook.attr} counter ({type(exc).__name__})"
            if label not in self.absent:
                self.absent.append(label)
            return
        for key, value in counted.items():
            self.counts[key] += value

    def operation(self, func):
        """Run ``func`` as one traced operation; returns (result, traced wall time)."""
        self._op += 1
        entered = self.clock()
        index = self._open(self.ROOT)
        start = self.clock()
        try:
            result = func()
        finally:
            end = self.clock()
            self._close(index, start, end, entered)
        return result, end - start

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op, covered in self.spans:
            totals[name] += (end - start) - covered
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, covered in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "self": (end - start) - covered,
                }) + "\n")


def per_layer_metrics(tracer: Tracer, untraced: list[float],
                      traced: list[float]) -> dict[str, float]:
    """Per-operation means of every per-layer metric.

    ``untraced`` and ``traced`` are the operation times of one run, whose
    untraced and traced operations alternate. The tracing overhead is the
    median over those pairs of traced minus untraced time, which cancels
    drift in machine speed better than the difference of the means.
    """
    ops = len(traced)
    selfs = tracer.self_times()
    values: dict[str, float] = {}
    layer_totals = dict.fromkeys(LAYERS, 0.0)
    for hook in HOOKS:
        own = selfs.get(hook.time_metric, 0.0)
        layer_totals[hook.module] += own
        values[hook.time_metric] = own / ops
        values[hook.calls_metric] = tracer.counts.get(hook.calls_metric, 0.0) / ops
    for name in COUNT_METRICS:
        values[name] = tracer.counts.get(name, 0.0) / ops
    for name, (_unit, num, den) in RATIO_METRICS.items():
        denominator = tracer.counts.get(den, 0.0)
        values[name] = tracer.counts.get(num, 0.0) / denominator if denominator else 0.0
    for layer, total in layer_totals.items():
        values[f"layer.{layer}_s"] = total / ops
    values["trace.untraced_wall_s"] = statistics.fmean(untraced)
    values["trace.traced_wall_s"] = statistics.fmean(traced)
    values["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced, traced))
    values["trace.self_sum_s"] = sum(selfs.values()) / ops
    values["trace.bookkeeping_s"] = tracer.bookkeeping / ops
    values["trace.glue_s"] = selfs.get(Tracer.ROOT, 0.0) / ops
    return values
