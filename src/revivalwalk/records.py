"""Run records: walk trajectories streamed as JSON, spectrum reports as dicts.

Everything here is JSON-ready (schema_version 1) and deterministic:
state dumps are sorted by position then coin slot, and momentum sampling
is driven by the config's seed. Coin labels in records are 1-based, as
in config files.
"""

from __future__ import annotations

import json
from array import array
from typing import TextIO

import numpy as np

from .config import WalkConfig, build_instance
from .engine import trajectory
from .momentum import MomentumPropagator, spectrum_sweep
from .states import WalkState

# json.dumps runs CPython's C encoder; indent= and json.dump(obj, handle) use the Python one.
COMPACT = (",", ":")


def _state_dump(state: WalkState) -> list[dict]:
    rows = []
    for position, vec in zip(state.coords.tolist(), state.amps.tolist()):
        for coin, amp in enumerate(vec, 1):
            if amp:
                rows.append({"position": position, "coin": coin, "re": amp.real, "im": amp.imag})
    return rows


def run_walk(config: WalkConfig, out: TextIO, csv: TextIO | None = None) -> None:
    """Evolve to max_steps, writing the record to ``out`` and the CSV to ``csv``.

    Unlike the early-stopping revival search, the record always covers
    t = 0 .. max_steps so trajectories can be plotted past the revival.
    Each step is encoded as soon as its state exists; ``period`` and the
    series follow ``steps`` because they are known only at the end. The
    series are held as doubles and encoded in chunks, so memory stays flat
    in the step count.
    """
    head = {"schema_version": 1, "d": config.d, "n": config.n,
            "revival_mode": config.revival_mode.value, "max_steps": config.max_steps}
    out.write(json.dumps(head, separators=COMPACT)[:-1] + ',"steps":')
    if csv is not None:
        csv.write(",".join(["step", *[f"x{r + 1}" for r in range(config.d)], "probability"]) + "\n")
    fidelity, distance, period = array("d"), array("d"), None
    walk = trajectory(build_instance(config), config.max_steps, config.revival_mode)
    for t, state, f, dist, revived in walk:
        fidelity.append(f)
        distance.append(dist)
        if revived and period is None:
            period = t
        out.write("," if t else "[")
        out.write(json.dumps({"t": t, "state": _state_dump(state)}, separators=COMPACT))
        if csv is not None:
            probability_csv(t, state, csv)
    out.write(f'],"period":{json.dumps(period)}')
    for key, series in (("fidelity_series", fidelity), ("distance_series", distance)):
        out.write(f',"{key}":[')
        for i in range(0, len(series), 256):
            chunk = json.dumps(series[i:i + 256].tolist(), separators=COMPACT)[1:-1]
            out.write("," + chunk if i else chunk)
        out.write("]")
    out.write("}\n")


def probability_csv(t: int, state: WalkState, csv: TextIO) -> None:
    """Write step t's CSV rows: step, one column per axis, probability.

    One row per occupied position, in sorted order; the probability is
    summed over coin slots, so each step's rows sum to 1 up to rounding.
    """
    csv.writelines(
        f"{t},{','.join(map(str, pos))},{p!r}\n"
        for pos, p in zip(state.coords.tolist(), state.probabilities().tolist())
    )


def run_spectrum(config: WalkConfig, samples: int, seed: int | None = None) -> dict:
    """Sweep the momentum propagator of a config across sampled momenta."""
    instance = config.instance
    prop = MomentumPropagator(coin=instance.coin, shifts=instance.shifts)
    report = spectrum_sweep(
        prop, samples, seed=config.seed if seed is None else seed,
        tol=config.tolerances.mat,
    )
    args = np.angle(report.eigenvalue_sets).tolist()
    return {
        "schema_version": 1,
        "n": config.n,
        "d": config.d,
        "samples": len(report.k_samples),
        "k_samples": [list(k) for k in report.k_samples],
        "eigenvalues": [
            [{"re": v.real, "im": v.imag, "arg": arg} for v, arg in zip(values, row)]
            for values, row in zip(report.eigenvalue_sets, args)
        ],
        "k_independent": report.k_independent,
        "matches_roots_of_unity": report.matches_roots_of_unity,
    }
