"""Seeded workloads for the revivalwalk benchmark.

Each workload writes its config files from a seed, computes a reference
from an independent route (the dense truncated-lattice oracle) once and
outside every timed region, and then runs operations as the CLI calls a
user would type, in-process. ``check`` compares an operation's outputs
against the reference and the walk's invariants and returns the failures.

The program is reached through module attributes (``cli.main``,
``engine.evolve`` ...) at call time, so the traced run sees every call.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from revivalwalk import cli, config, engine, momentum
from revivalwalk.engine import WalkInstance
from revivalwalk.states import WalkState

GOLDEN_TOL = 1e-12    # sparse vs dense and golden tables
PROB_TOL = 1e-9       # probability conservation
SPECTRUM_TOL = 1e-8   # eigenvalues vs roots of unity
REVIVAL_TOL = 1e-9    # the library's default revival tolerance

#: Generated parameters per workload and size. "full" keeps one operation
#: under about 0.6 s on a 2-CPU machine, so a 25-second run holds well over
#: the benchmark's 40-operation minimum. "tiny" keeps every code path of the
#: full size and is used by the benchmark's own tests.
SIZES = {
    "ballistic-period": {
        "full": {"steps": 150},
        "tiny": {"steps": 12},
    },
    "scattered-record": {
        "full": {"sites": 1200, "spread": 10**6, "steps": 6},
        "tiny": {"sites": 12, "spread": 1000, "steps": 6},
    },
    "verify-spectrum": {
        "full": {"d": 3, "n": 16, "samples": 300, "periods": 2},
        "tiny": {"d": 2, "n": 4, "samples": 8, "periods": 1},
    },
}

# Golden walk 3: the paper's d=2, n=3 construction.
PAPER_PHASES = [0, "pi*2/3", "pi*4/3"]
PAPER_SHIFTS = [[1, 1, -2], [-1, -1, 2]]


# -- helpers ------------------------------------------------------------------

def _entries(positions, amplitudes) -> list[dict]:
    """Config ``initial`` list: one entry per nonzero (position, slot)."""
    out = []
    for pos, vec in zip(positions, amplitudes):
        for slot, amp in enumerate(vec):
            if amp != 0:
                out.append({"position": [int(c) for c in pos], "coin": slot + 1,
                            "amp_re": float(amp.real), "amp_im": float(amp.imag)})
    return out


def _normalized(z: np.ndarray) -> np.ndarray:
    return z / np.sqrt(np.sum(np.abs(z) ** 2))


def _random_amplitudes(rng: np.random.Generator, shape) -> np.ndarray:
    return _normalized(rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _as_dict(state: WalkState) -> dict:
    return {pos: np.asarray(vec) for pos, vec in state.items()}


def _dump_to_dict(rows: list[dict], n: int) -> dict:
    """A record's state dump (1-based coin labels) as position -> vector."""
    out: dict = {}
    for row in rows:
        vec = out.setdefault(tuple(row["position"]), np.zeros(n, dtype=np.complex128))
        vec[row["coin"] - 1] += complex(row["re"], row["im"])
    return out


def _differences(a: dict, b: dict):
    """a - b at every position of either map (a missing vector is zero)."""
    for pos in a.keys() | b.keys():
        va, vb = a.get(pos), b.get(pos)
        yield va if vb is None else (-vb if va is None else va - vb)


def max_abs_deviation(a: dict, b: dict) -> float:
    """Largest |a - b| over the union of two position -> vector maps."""
    return max((float(np.max(np.abs(diff))) for diff in _differences(a, b)), default=0.0)


def _norm_sq(state: dict) -> float:
    return float(sum(np.vdot(v, v).real for v in state.values()))


def oracle_trajectory(instance: WalkInstance, steps: int) -> list[dict]:
    """States psi_0 .. psi_steps, each one dense-oracle step from the last.

    Every call gets the smallest window the oracle accepts for one step,
    so the dense matrix stays as small as the current support allows.
    """
    reach = [max(abs(a) for a in row) for row in instance.shifts.displacements]
    state = instance.initial
    out = [_as_dict(state)]
    for _ in range(steps):
        window = [max(abs(p[r]) for p in state.positions()) + reach[r]
                  for r in range(len(reach))]
        one = WalkInstance(coin=instance.coin, shifts=instance.shifts, initial=state,
                           tolerances=instance.tolerances)
        state = momentum.dense_oracle_evolve(one, 1, window)
        out.append(_as_dict(state))
    return out


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _load_instance(path: Path) -> WalkInstance:
    return config.build_instance(config.load_config(path))


# -- workloads ----------------------------------------------------------------

class Workload:
    """One seeded workload: inputs, a reference, operations and checks."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.params = dict(SIZES[self.name][size], seed=seed)
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.configs: list[Path] = []
        self.outputs: list[Path] = []
        self.generate()
        self.site_steps = self.prepare()

    def generate(self) -> None:
        """Write the config files the program receives."""
        raise NotImplementedError

    def prepare(self) -> int:
        """Compute the reference; return occupied sites summed over the steps of one operation."""
        raise NotImplementedError

    def setup(self) -> None:
        """One program set-up: load every config and build its instance."""
        for path in self.configs:
            _load_instance(path)

    def clear(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def op(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def output_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.outputs if path.exists())


class BallisticPeriod(Workload):
    """walk-period on a Hadamard line walk from one site: no revival, every step runs."""

    name = "ballistic-period"

    def generate(self) -> None:
        amps = _random_amplitudes(self.rng, (1, 2))
        cfg = {
            "schema_version": 1, "d": 1, "n": 2,
            "coin": {"kind": "general_1d", "theta": "pi/4", "phi1": 0, "phi2": 0},
            "shifts": [[-1, 1]],
            "initial": _entries([(0,)], amps),
            "max_steps": self.params["steps"],
        }
        self.configs = [_write_json(self.workdir / "hadamard.json", cfg)]
        self.outputs = [self.workdir / "period.json"]

    def prepare(self) -> int:
        steps = self.params["steps"]
        trajectory = oracle_trajectory(_load_instance(self.configs[0]), steps)
        psi0 = trajectory[0]
        self.ref_fidelity = []
        self.ref_distance = []
        for state in trajectory:
            overlap = sum(np.vdot(v, state[p]) for p, v in psi0.items() if p in state)
            self.ref_fidelity.append(abs(complex(overlap)))
            self.ref_distance.append(math.sqrt(
                sum(np.sum(np.abs(d) ** 2) for d in _differences(state, psi0))))
        return sum(len(state) for state in trajectory[:steps])

    def op(self):
        return cli.main(["walk-period", "--config", str(self.configs[0]),
                         "--out", str(self.outputs[0])])

    def check(self, result) -> list[str]:
        if result != 0:
            return [f"walk-period exit code {result}"]
        record = json.loads(self.outputs[0].read_text(encoding="utf-8"))
        steps = self.params["steps"]
        fails = []
        if record["period"] is not None:
            fails.append(f"Hadamard walk reported period {record['period']}, expected none")
        fid, dist = record["fidelity_series"], record["distance_series"]
        if len(fid) != steps + 1 or len(dist) != steps + 1:
            return fails + [f"series lengths {len(fid)}, {len(dist)}, expected {steps + 1}"]
        worst = max(max(abs(a - b) for a, b in zip(fid, self.ref_fidelity)),
                    max(abs(a - b) for a, b in zip(dist, self.ref_distance)))
        if worst > GOLDEN_TOL:
            fails.append(f"series differ from the dense oracle by {worst:.3e}")
        # Odd steps have no overlap with the one-site start (shifts are +-1),
        # so distance^2 = |psi_t|^2 + 1 there and must equal 2.
        drift = max(abs(dist[t] ** 2 - 2.0) for t in range(1, steps + 1, 2))
        if drift > PROB_TOL:
            fails.append(f"probability not conserved: drift {drift:.3e}")
        return fails


class ScatteredRecord(Workload):
    """walk-run --out --csv on the paper's d=2, n=3 walk from scattered sites."""

    name = "scattered-record"
    #: Sites sit in distinct 16x16 cells at offsets 0..7, so any two are at
    #: least 9 apart and the orbits (radius <= 4) never collide.
    CELL = 16

    def generate(self) -> None:
        p = self.params
        half = p["spread"] // self.CELL
        cells, seen = [], set()
        while len(cells) < p["sites"]:
            cell = tuple(int(c) for c in self.rng.integers(-half, half, size=2))
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)
        offsets = self.rng.integers(0, self.CELL // 2, size=(p["sites"], 2))
        self.positions = np.array(cells, dtype=np.int64) * self.CELL + offsets
        # One random coin slot per site, as a walker dropped at each site.
        slots = self.rng.integers(0, 3, size=p["sites"])
        self.amplitudes = np.zeros((p["sites"], 3), dtype=np.complex128)
        self.amplitudes[np.arange(p["sites"]), slots] = _random_amplitudes(self.rng, p["sites"])
        cfg = {
            "schema_version": 1, "d": 2, "n": 3,
            "coin": {"kind": "cyclic", "phases": PAPER_PHASES},
            "shifts": PAPER_SHIFTS,
            "initial": _entries(self.positions, self.amplitudes),
            "max_steps": p["steps"],
        }
        self.configs = [_write_json(self.workdir / "scattered.json", cfg)]
        self.outputs = [self.workdir / "record.json", self.workdir / "probs.csv"]

    def prepare(self) -> int:
        """Compose the reference from dense-oracle responses to each coin state.

        The walk is linear and translation invariant, so the state at step
        t is the sum over initial (site, slot) amplitudes of the oracle's
        response to a unit amplitude on that slot at the origin, moved to
        the site.
        """
        instance = _load_instance(self.configs[0])
        steps = self.params["steps"]
        responses = []
        for slot in range(3):
            unit = WalkInstance(coin=instance.coin, shifts=instance.shifts,
                                initial=WalkState.localized(2, 3, (0, 0), slot),
                                tolerances=instance.tolerances)
            responses.append(oracle_trajectory(unit, steps))
        site_steps = 0
        for t in range(steps + 1):
            rows, vecs = [], []
            for slot in range(3):
                for offset, vec in responses[slot][t].items():
                    rows.append(self.positions + np.array(offset))
                    vecs.append(self.amplitudes[:, slot:slot + 1] * vec)
            keys, inverse = np.unique(np.concatenate(rows), axis=0, return_inverse=True)
            summed = np.zeros((len(keys), 3), dtype=np.complex128)
            np.add.at(summed, inverse.ravel(), np.concatenate(vecs))
            occupied = summed.any(axis=1)
            if t < steps:
                site_steps += int(occupied.sum())
        self.reference = {tuple(int(c) for c in k): v
                          for k, v, keep in zip(keys, summed, occupied) if keep}
        return site_steps

    def op(self):
        return cli.main(["walk-run", "--config", str(self.configs[0]),
                         "--out", str(self.outputs[0]), "--csv", str(self.outputs[1])])

    def check(self, result) -> list[str]:
        if result != 0:
            return [f"walk-run exit code {result}"]
        record = json.loads(self.outputs[0].read_text(encoding="utf-8"))
        steps = self.params["steps"]
        fails = []
        if record["period"] != 3:
            fails.append(f"period {record['period']}, expected 3")
        if [entry["t"] for entry in record["steps"]] != list(range(steps + 1)):
            return fails + ["record does not hold steps 0..max_steps"]
        revived = max(record["distance_series"][t] for t in range(0, steps + 1, 3))
        if revived > REVIVAL_TOL:
            fails.append(f"no revival at a multiple of 3: distance {revived:.3e}")
        drift = max(abs(sum(r["re"] ** 2 + r["im"] ** 2 for r in entry["state"]) - 1.0)
                    for entry in record["steps"])
        if drift > PROB_TOL:
            fails.append(f"probability not conserved in the record: drift {drift:.3e}")
        final = _dump_to_dict(record["steps"][-1]["state"], 3)
        worst = max_abs_deviation(final, self.reference)
        if worst > GOLDEN_TOL:
            fails.append(f"final state differs from the dense oracle by {worst:.3e}")
        fails.extend(self._check_csv(steps))
        return fails

    def _check_csv(self, steps: int) -> list[str]:
        with open(self.outputs[1], encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != ["step", "x1", "x2", "probability"]:
                return ["CSV header is wrong"]
            totals = [0.0] * (steps + 1)
            for row in reader:
                totals[int(row[0])] += float(row[3])
        drift = max(abs(total - 1.0) for total in totals)
        return [f"CSV probabilities drift {drift:.3e}"] if drift > PROB_TOL else []


class VerifySpectrum(Workload):
    """spectrum, reproduce-table 1/2/3 and a sparse-vs-dense cross-check."""

    name = "verify-spectrum"

    def generate(self) -> None:
        p = self.params
        d, n = p["d"], p["n"]
        phases = self.rng.uniform(-math.pi, math.pi, size=n - 1)
        menu = [a for a in range(-(n // 2), n // 2 + 1) if a != 0 or n % 2]
        spectrum_cfg = {
            "schema_version": 1, "d": d, "n": n,
            "coin": {"kind": "cyclic", "phases": [*map(float, phases), -float(phases.sum())]},
            "shifts": [[int(a) for a in self.rng.permutation(menu)] for _ in range(d)],
            "initial": [{"position": [0] * d, "coin": 1, "amp_re": 1.0, "amp_im": 0.0}],
            "seed": int(self.rng.integers(0, 2**32)),
        }
        cross_cfg = {
            "schema_version": 1, "d": 2, "n": 3,
            "coin": {"kind": "cyclic", "phases": PAPER_PHASES},
            "shifts": PAPER_SHIFTS,
            "initial": _entries([(0, 0)], _random_amplitudes(self.rng, (1, 3))),
        }
        self.configs = [_write_json(self.workdir / "spectrum-config.json", spectrum_cfg),
                        _write_json(self.workdir / "crosscheck-config.json", cross_cfg)]
        self.outputs = [self.workdir / f"{name}.json"
                        for name in ("spectrum", "table1", "table2", "table3")]

    def prepare(self) -> int:
        self.cross = _load_instance(self.configs[1])
        self.cross_steps = 3 * self.params["periods"]
        reach = max(abs(a) for row in PAPER_SHIFTS for a in row)
        self.window = (reach * self.cross_steps,) * 2
        trajectory = oracle_trajectory(self.cross, self.cross_steps)
        self.reference = trajectory[-1]
        return sum(len(state) for state in trajectory[:-1])

    def op(self):
        spectrum = cli.main(["spectrum", "--config", str(self.configs[0]),
                             "--samples", str(self.params["samples"]),
                             "--out", str(self.outputs[0])])
        tables = [cli.main(["reproduce-table", "--which", str(which),
                            "--out", str(self.outputs[which])]) for which in (1, 2, 3)]
        sparse = engine.evolve(self.cross, self.cross_steps)
        dense = momentum.dense_oracle_evolve(self.cross, self.cross_steps, self.window)
        return spectrum, tables, sparse, dense

    def check(self, result) -> list[str]:
        spectrum, tables, sparse, dense = result
        fails = []
        if spectrum != 0:
            fails.append(f"spectrum exit code {spectrum}")
        else:
            fails.extend(self._check_spectrum())
        for which, code in zip((1, 2, 3), tables):
            record = json.loads(self.outputs[which].read_text(encoding="utf-8"))
            if code != 0 or record["pass"] is not True:
                fails.append(f"golden table {which} failed (exit {code})")
            if record["period"] != record["expected_period"]:
                fails.append(f"golden table {which} period {record['period']}")
        sparse, dense = _as_dict(sparse), _as_dict(dense)
        initial = _as_dict(self.cross.initial)
        for label, other in (("dense oracle", dense), ("reference", self.reference),
                             ("initial state (period 3)", initial)):
            worst = max_abs_deviation(sparse, other)
            if worst > GOLDEN_TOL:
                fails.append(f"sparse state differs from the {label} by {worst:.3e}")
        if abs(_norm_sq(sparse) - 1.0) > PROB_TOL:
            fails.append("probability not conserved in the sparse cross-check")
        return fails

    def _check_spectrum(self) -> list[str]:
        record = json.loads(self.outputs[0].read_text(encoding="utf-8"))
        n, samples = self.params["n"], self.params["samples"]
        fails = []
        if not (record["k_independent"] and record["matches_roots_of_unity"]):
            fails.append("spectrum flags are not both true")
        values = np.array([[complex(e["re"], e["im"]) for e in row]
                           for row in record["eigenvalues"]])
        if values.shape != (samples, n):
            return fails + [f"eigenvalue table has shape {values.shape}"]
        nearest = np.rint(np.angle(values) * n / (2 * math.pi)).astype(int) % n
        roots = np.exp(2j * math.pi * nearest / n)
        worst = float(np.max(np.abs(values - roots)))
        distinct = all(len(set(row)) == n for row in nearest.tolist())
        if worst > SPECTRUM_TOL or not distinct:
            fails.append(f"eigenvalues are not the {n}-th roots of unity ({worst:.3e})")
        return fails


WORKLOADS = {cls.name: cls for cls in (BallisticPeriod, ScatteredRecord, VerifySpectrum)}
