"""Coin operators for lattice walks.

Four families are supported:

* ``CYCLIC`` -- an n-state coin that permutes the coin basis cyclically,
  each hop weighted by a unit-modulus phase e^{i*theta_j}. When the phases
  sum to a multiple of 2*pi the coin has matrix order exactly n, which is
  what makes every walk driven by it revive with period n.
* ``PARTIAL_CYCLE`` -- cycles only the first r coin states and fixes the
  rest; order exactly r. Paired with zero displacements on the fixed
  states it yields walks that revive every r steps while keeping some
  amplitude frozen in place.
* ``GENERAL_1D`` -- the standard two-state coin parameterized by one
  rotation angle and two relative phases.
* ``CUSTOM`` -- any user-supplied unitary; no revival guarantee attached.

Coin basis states are 0-based here (slot j of an amplitude vector); the
JSON config layer uses 1-based labels.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DimensionMismatchError, NonUnitaryError, PhaseSumError
from .linalg import as_complex_matrix, is_unitary
from .tolerances import TOL_MAT, TOL_PHASE

TAU = 2.0 * math.pi


class CoinKind(enum.Enum):
    CYCLIC = "cyclic"
    PARTIAL_CYCLE = "partial_cycle"
    GENERAL_1D = "general_1d"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class CoinMatrix:
    """An n x n unitary coin plus its construction metadata.

    ``phases`` is present for CYCLIC / PARTIAL_CYCLE kinds (wrapped into
    (-pi, pi]); ``cycle_length`` is present for PARTIAL_CYCLE. The cycle
    and two-state builders are unitary by construction; only a custom
    matrix is checked (in ``build_custom_coin``).
    """

    matrix: np.ndarray
    kind: CoinKind
    phases: tuple[float, ...] | None = None
    cycle_length: int | None = None

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix).copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def wrap_phase(theta: float) -> float:
    """Reduce an angle into (-pi, pi] by subtracting multiples of 2*pi."""
    r = math.remainder(float(theta), TAU)
    if r <= -math.pi:
        r += TAU
    return r


def phase_sum_residual(phases: Sequence[float]) -> float:
    """Residual of sum(phases) mod 2*pi, reduced into [-pi, pi]."""
    return math.remainder(math.fsum(phases), TAU)


def complete_phases(partial: Sequence[float]) -> list[float]:
    """Append the final phase that makes the sum a multiple of 2*pi.

    The appended value lies in (-pi, pi]; the given phases pass through
    unchanged.
    """
    last = -math.remainder(math.fsum(partial), TAU)
    if last <= -math.pi:
        last += TAU
    return [*map(float, partial), last]


def random_cyclic_phases(n: int, rng: np.random.Generator) -> list[float]:
    """n-1 phases drawn uniformly from (-pi, pi], completed to a valid set."""
    if n < 2:
        raise DimensionMismatchError(f"cyclic coins need n >= 2, got {n}")
    return complete_phases(rng.uniform(-math.pi, math.pi, size=n - 1).tolist())


def _check_phase_sum(phases: Sequence[float], tol: float = TOL_PHASE) -> None:
    residual = phase_sum_residual(phases)
    if not abs(residual) <= tol:  # a NaN phase fails too
        raise PhaseSumError(residual, tol)


def _cycle_coin(
    n: int, phases: Sequence[float], tol: float, kind: CoinKind, cycle_length: int | None = None
) -> CoinMatrix:
    """Slot j-1 feeds slot j (mod r = len(phases)) with weight e^{i*phases[j]}; r.. are fixed."""
    _check_phase_sum(phases, tol)
    wrapped = tuple(wrap_phase(t) for t in phases)
    r = len(wrapped)
    m = np.zeros((n, n), dtype=np.complex128)
    for j in range(r):
        m[j, (j - 1) % r] = np.exp(1j * wrapped[j])
    for j in range(r, n):
        m[j, j] = 1.0
    return CoinMatrix(matrix=m, kind=kind, phases=wrapped, cycle_length=cycle_length)


def build_cyclic_coin(phases: Sequence[float], tol: float = TOL_PHASE) -> CoinMatrix:
    """Cyclic phase coin: slot j feeds slot j+1 (mod n) with weight e^{i*theta}.

    ``phases[j]`` weights the hop into slot j, i.e. entry (j, j-1) of the
    matrix for j >= 1 and entry (0, n-1) for j = 0. The phases must sum to
    a multiple of 2*pi within ``tol``; inputs are wrapped into (-pi, pi],
    not rejected.
    """
    n = len(phases)
    if n < 2:
        raise DimensionMismatchError(f"cyclic coins need n >= 2, got {n}")
    return _cycle_coin(n, phases, tol, CoinKind.CYCLIC)


def build_partial_cycle_coin(
    n: int, r: int, phases: Sequence[float], tol: float = TOL_PHASE
) -> CoinMatrix:
    """Coin cycling slots 0..r-1 with phases and fixing slots r..n-1.

    Requires n >= r >= 2 and len(phases) == r with a 2*pi-multiple sum.
    The fixed block is the exact identity, so any amplitude parked there
    (with a zero shifting rule) never moves.
    """
    if r < 2 or r > n:
        raise DimensionMismatchError(f"need n >= r >= 2, got n={n}, r={r}")
    if len(phases) != r:
        raise DimensionMismatchError(f"expected {r} phases, got {len(phases)}")
    return _cycle_coin(n, phases, tol, CoinKind.PARTIAL_CYCLE, cycle_length=r)


def build_general_coin_1d(theta: float, phi1: float, phi2: float) -> CoinMatrix:
    """Two-state coin [[cos t, e^{i p1} sin t], [e^{i p2} sin t, -e^{i(p1+p2)} cos t]].

    theta must lie in [0, 2*pi); phi1 and phi2 in [0, pi).
    """
    if not 0.0 <= theta < TAU:
        raise ConstraintError(f"theta must be in [0, 2*pi), got {theta}")
    for name, value in (("phi1", phi1), ("phi2", phi2)):
        if not 0.0 <= value < math.pi:
            raise ConstraintError(f"{name} must be in [0, pi), got {value}")
    c, s = math.cos(theta), math.sin(theta)
    m = np.array(
        [
            [c, np.exp(1j * phi1) * s],
            [np.exp(1j * phi2) * s, -np.exp(1j * (phi1 + phi2)) * c],
        ],
        dtype=np.complex128,
    )
    return CoinMatrix(matrix=m, kind=CoinKind.GENERAL_1D)


def build_custom_coin(matrix) -> CoinMatrix:
    """Wrap an arbitrary unitary as a coin; no revival structure is assumed."""
    m = as_complex_matrix(matrix)
    if not is_unitary(m, TOL_MAT):
        raise NonUnitaryError("custom coin matrix is not unitary")
    return CoinMatrix(matrix=m, kind=CoinKind.CUSTOM)
