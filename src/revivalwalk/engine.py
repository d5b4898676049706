"""Position-space evolution: coin toss, shift, revival detection.

One step multiplies the amplitude rows of every occupied site by the
coin matrix, in one matrix product, and then relocates each coin slot by
its displacement. The coin acts first; the tables of amplitudes a walk
produces depend on that order.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field

from .coins import CoinMatrix
from .errors import DimensionMismatchError, NormalizationError
from .shifts import ShiftTable, apply_shift
from .states import Position, WalkState, inner_product, l2_distance, shared_rows
from .tolerances import Tolerances


class RevivalMode(enum.Enum):
    """Exact compares states entrywise; GLOBAL_PHASE ignores an overall phase."""

    EXACT = "exact"
    GLOBAL_PHASE = "global_phase"


@dataclass(frozen=True)
class WalkInstance:
    """A coin, a shift table, an initial state, and the tolerances to run with."""

    coin: CoinMatrix
    shifts: ShiftTable
    initial: WalkState
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self) -> None:
        if self.coin.n != self.shifts.n or self.coin.n != self.initial.n:
            raise DimensionMismatchError(
                f"coin dimension mismatch: coin n={self.coin.n}, "
                f"shifts n={self.shifts.n}, state n={self.initial.n}"
            )
        if self.shifts.d != self.initial.d:
            raise DimensionMismatchError(
                f"spatial dimension mismatch: shifts d={self.shifts.d}, "
                f"state d={self.initial.d}"
            )
        norm = self.initial.norm()
        if abs(norm - 1.0) > self.tolerances.norm:
            raise NormalizationError(
                f"initial state norm {norm!r} is not 1 within {self.tolerances.norm:.1e}"
            )


@dataclass(frozen=True)
class RevivalReport:
    """Revival search result.

    ``fidelity_series[t]`` is |<psi_0|psi_t>| and ``distance_series[t]``
    is ||psi_t - psi_0||, for t = 0 up to the detected period (or to
    max_steps when nothing revived).
    """

    period: int | None
    fidelity_series: tuple[float, ...]
    distance_series: tuple[float, ...]
    mode: RevivalMode


def step(state: WalkState, instance: WalkInstance) -> WalkState:
    """Advance one step: coin on every occupied site, then the shift."""
    if state.d != instance.shifts.d or state.n != instance.coin.n:
        raise DimensionMismatchError(
            f"state (d={state.d}, n={state.n}) does not match instance "
            f"(d={instance.shifts.d}, n={instance.coin.n})"
        )
    tossed = WalkState(state.coords, state.amps @ instance.coin.matrix.T)
    return apply_shift(tossed, instance.shifts)


def evolve(instance: WalkInstance, t: int) -> WalkState:
    """State after t steps from the instance's initial state."""
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    state = instance.initial
    for _ in range(t):
        state = step(state, instance)
    return state


def trajectory(
    instance: WalkInstance, max_steps: int, mode: RevivalMode = RevivalMode.EXACT
) -> Iterator[tuple[int, WalkState, float, float, bool]]:
    """Yield ``(t, state, fidelity, distance, revived)`` for t = 0 .. max_steps.

    fidelity is |<psi_0|psi_t>| and distance ||psi_t - psi_0||. A step revives
    when its distance (EXACT) or 1 - fidelity (GLOBAL_PHASE, blind to an
    overall phase) is within the revival tolerance; t = 0 never does.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    tol = instance.tolerances.revival
    initial = state = instance.initial
    yield 0, state, abs(inner_product(initial, initial)), 0.0, False
    for t in range(1, max_steps + 1):
        state = step(state, instance)
        shared = shared_rows(initial, state)
        f = abs(inner_product(initial, state, shared))
        d = l2_distance(state, initial, shared[::-1])
        yield t, state, f, d, (d if mode is RevivalMode.EXACT else 1.0 - f) <= tol


def detect_revival(
    instance: WalkInstance,
    max_steps: int,
    mode: RevivalMode = RevivalMode.EXACT,
) -> RevivalReport:
    """Find the first step at which the walk returns to its initial state.

    The search stops at the first revival of :func:`trajectory`; later
    revivals are multiples of it by unitarity.
    """
    fidelity, distance, period = [], [], None
    for t, _, f, d, revived in trajectory(instance, max_steps, mode):
        fidelity.append(f)
        distance.append(d)
        if revived:
            period = t
            break
    return RevivalReport(period, tuple(fidelity), tuple(distance), mode)


def probability_distribution(state: WalkState) -> dict[Position, float]:
    """Per-position probability: re^2 + im^2 of each slot, added in slot order."""
    return dict(zip(state.positions(), state.probabilities().tolist()))
