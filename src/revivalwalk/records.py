"""Run records: walk trajectories and spectrum reports as plain dicts.

Everything here is JSON-ready (schema_version 1) and deterministic:
state dumps are sorted by position then coin slot, and momentum sampling
is driven by the config's seed. Coin labels in records are 1-based, as
in config files.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .config import WalkConfig, build_instance
from .engine import trajectory
from .momentum import MomentumPropagator, spectrum_sweep
from .states import WalkState


def _state_dump(state: WalkState) -> list[dict]:
    rows = []
    for pos, vec in sorted(state.items()):
        for coin in range(state.n):
            amp = vec[coin]
            if amp != 0:
                rows.append(
                    {
                        "position": list(pos),
                        "coin": coin + 1,
                        "re": float(amp.real),
                        "im": float(amp.imag),
                    }
                )
    return rows


def run_walk(config: WalkConfig) -> dict:
    """Evolve to max_steps, dumping every state and the revival series.

    Unlike the early-stopping revival search, the record always covers
    t = 0 .. max_steps so trajectories can be plotted past the revival.
    """
    steps, fidelity, distance, period = [], [], [], None
    walk = trajectory(build_instance(config), config.max_steps, config.revival_mode)
    for t, state, f, dist, revived in walk:
        fidelity.append(f)
        distance.append(dist)
        if revived and period is None:
            period = t
        steps.append({"t": t, "state": _state_dump(state)})
    return {
        "schema_version": 1,
        "d": config.d,
        "n": config.n,
        "revival_mode": config.revival_mode.value,
        "max_steps": config.max_steps,
        "period": period,
        "fidelity_series": fidelity,
        "distance_series": distance,
        "steps": steps,
    }


def probability_csv(record: dict) -> str:
    """CSV view of a run record: step, one column per axis, probability.

    Amplitudes at the same position are summed over coin slots; each
    step's rows sum to 1 up to accumulated rounding.
    """
    d = record["d"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["step", *[f"x{r + 1}" for r in range(d)], "probability"])
    for entry in record["steps"]:
        totals: dict[tuple[int, ...], float] = {}
        for row in entry["state"]:
            pos = tuple(row["position"])
            totals[pos] = totals.get(pos, 0.0) + row["re"] ** 2 + row["im"] ** 2
        for pos in sorted(totals):
            writer.writerow([entry["t"], *pos, repr(totals[pos])])
    return out.getvalue()


def run_spectrum(config: WalkConfig, samples: int, seed: int | None = None) -> dict:
    """Sweep the momentum propagator of a config across sampled momenta."""
    instance = config.instance
    prop = MomentumPropagator(coin=instance.coin, shifts=instance.shifts)
    report = spectrum_sweep(
        prop, samples, seed=config.seed if seed is None else seed,
        tol=config.tolerances.mat,
    )
    return {
        "schema_version": 1,
        "n": config.n,
        "d": config.d,
        "samples": len(report.k_samples),
        "k_samples": [list(k) for k in report.k_samples],
        "eigenvalues": [
            [
                {"re": v.real, "im": v.imag, "arg": float(np.angle(v))}
                for v in eigen_set
            ]
            for eigen_set in report.eigenvalue_sets
        ],
        "k_independent": report.k_independent,
        "matches_roots_of_unity": report.matches_roots_of_unity,
    }
