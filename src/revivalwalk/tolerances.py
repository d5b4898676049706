"""Default numerical tolerances shared across the library.

All operators in this library are built from unit-modulus factors, so
drift is tiny and the defaults can be tight. Every tolerance can be
overridden per run through :class:`Tolerances` (and, at the file level,
through the ``tolerances`` block of a walk config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Unit-norm check on sparse walk states (l2).
TOL_NORM = 1e-12

#: Max-entry checks on small dense matrices (unitarity, powers vs identity).
TOL_MAT = 1e-10

#: Residual of a phase sum modulo 2*pi, after reduction into (-pi, pi].
#: Forgiving enough for user-entered multiples of pi/3 in double precision,
#: tight enough to catch real violations.
TOL_PHASE = 1e-9

#: l2 distance (or 1 - fidelity) threshold for declaring a revival.
TOL_REVIVAL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Bundle of per-run tolerance overrides."""

    norm: float = TOL_NORM
    mat: float = TOL_MAT
    phase: float = TOL_PHASE
    revival: float = TOL_REVIVAL

    def __post_init__(self) -> None:
        for name in ("norm", "mat", "phase", "revival"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"tolerance {name!r} must be positive and finite, got {value}")
