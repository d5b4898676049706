"""Bundled reference walks with hard-coded expected amplitude tables.

Three golden configurations ship with the package:

1. two coin states on a line, phases (4*pi/3, 2*pi/3), shifts (-1, +1),
   starting in an equal superposition at x = 1; revives every 2 steps.
2. three coin states on a line, phases (0, 2*pi/3, 4*pi/3), shifts
   (-5, 3, 2), one coin state per site at x = 3, 2, 1; revives every 3.
3. the same three-phase coin on a 2-d lattice with per-axis zero-sum
   shifts x: (1, 1, -2), y: (-1, -1, 2), all amplitude at the origin;
   revives every 3 steps.

``reproduce_table`` replays a walk once and compares every amplitude at
every tabulated step against the frozen values below, at 1e-12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .config import WalkConfig, build_instance, parse_config
from .engine import trajectory
from .states import Position, WalkState, difference

GOLDEN_TOLERANCE = 1e-12

_A2 = 1.0 / math.sqrt(2.0)
_A3 = 1.0 / math.sqrt(3.0)
_W = cmath.exp(2j * math.pi / 3.0)  # e^{2*pi*i/3}
_WB = _W.conjugate()

# (position, coin slot (0-based), amplitude) per tabulated step.
ExpectedStep = list[tuple[Position, int, complex]]

_TABLE1: dict[int, ExpectedStep] = {
    0: [((1,), 0, _A2), ((1,), 1, _A2)],
    1: [((0,), 0, _A2 * _WB), ((2,), 1, _A2 * _W)],
    2: [((1,), 0, _A2), ((1,), 1, _A2)],
}

_TABLE2: dict[int, ExpectedStep] = {
    0: [((3,), 0, _A3), ((2,), 1, _A3), ((1,), 2, _A3)],
    1: [((-4,), 0, _A3), ((6,), 1, _A3 * _W), ((4,), 2, _A3 * _WB)],
    2: [((-1,), 0, _A3 * _WB), ((-1,), 1, _A3 * _W), ((8,), 2, _A3)],
    3: [((3,), 0, _A3), ((2,), 1, _A3), ((1,), 2, _A3)],
}

_TABLE3: dict[int, ExpectedStep] = {
    0: [((0, 0), 0, _A3), ((0, 0), 1, _A3), ((0, 0), 2, _A3)],
    1: [((1, -1), 0, _A3), ((1, -1), 1, _A3 * _W), ((-2, 2), 2, _A3 * _WB)],
    2: [((-1, 1), 0, _A3 * _WB), ((2, -2), 1, _A3 * _W), ((-1, 1), 2, _A3)],
    3: [((0, 0), 0, _A3), ((0, 0), 1, _A3), ((0, 0), 2, _A3)],
}

EXPECTED_AMPLITUDES: dict[int, dict[int, ExpectedStep]] = {
    1: _TABLE1,
    2: _TABLE2,
    3: _TABLE3,
}

EXPECTED_PERIODS = {1: 2, 2: 3, 3: 3}


def golden_config_text(which: int) -> str:
    if which not in EXPECTED_AMPLITUDES:
        raise ValueError(f"no bundled walk numbered {which}; choose 1, 2 or 3")
    name = f"table{which}.json"
    return resources.files("revivalwalk.fixtures").joinpath(name).read_text("utf-8")


def golden_config(which: int) -> WalkConfig:
    return parse_config(golden_config_text(which))


def state_deviation(state: WalkState, expected: ExpectedStep) -> float:
    """Max |actual - expected| over the union of supports."""
    rows: dict = {}
    for pos, coin, amp in expected:
        rows.setdefault(pos, [0j] * state.n)[coin] = amp
    table = WalkState(state.d, state.n, rows)
    return float(np.abs(difference(state, table)).max(initial=0.0))


@dataclass(frozen=True)
class TableComparison:
    which: int
    passed: bool
    max_abs_deviation: float
    per_step_deviation: dict[int, float]
    period: int | None
    expected_period: int
    tolerance: float = GOLDEN_TOLERANCE

    def to_record(self) -> dict:
        return {
            "schema_version": 1,
            "table": self.which,
            "pass": self.passed,
            "max_abs_deviation": self.max_abs_deviation,
            "per_step_deviation": {
                str(t): dev for t, dev in sorted(self.per_step_deviation.items())
            },
            "period": self.period,
            "expected_period": self.expected_period,
            "tolerance": self.tolerance,
        }


def reproduce_table(which: int) -> TableComparison:
    """Replay bundled walk ``which`` and compare it against its frozen table.

    Failure is reported in the comparison, never raised: a FAIL result is
    a finding about the build, not an input error.
    """
    config = golden_config(which)
    expected = EXPECTED_AMPLITUDES[which]
    per_step: dict[int, float] = {}
    period = None
    walk = trajectory(build_instance(config), config.max_steps, config.revival_mode)
    for t, state, _, _, revived in walk:
        if t in expected:
            per_step[t] = state_deviation(state, expected[t])
        if revived and period is None:
            period = t
        if period is not None and len(per_step) == len(expected):
            break
    worst = max(per_step.values())
    passed = worst <= GOLDEN_TOLERANCE and period == EXPECTED_PERIODS[which]
    return TableComparison(
        which=which,
        passed=passed,
        max_abs_deviation=worst,
        per_step_deviation=per_step,
        period=period,
        expected_period=EXPECTED_PERIODS[which],
    )
