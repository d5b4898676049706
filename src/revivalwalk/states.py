"""Sparse coin-walker states on d-dimensional integer lattices.

A :class:`WalkState` maps occupied lattice positions (tuples of ints) to
dense length-n complex amplitude vectors, one slot per coin basis state.
Coin indices are 0-based throughout the Python API; the JSON config layer
speaks 1-based indices to match the usual bra-ket labelling.

States are value-semantic: every operation returns a new state, the
amplitude arrays are frozen (non-writeable), and positions whose vectors
are exactly zero are never stored. Only exact zeros are dropped, never
tiny amplitudes, so that support structure stays meaningful in revival
checks. Outside input enters through :meth:`WalkState.from_entries`
(which ``localized`` and the config layer call) and is validated there,
once; the constructor wraps vectors that the package built, unchecked.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, NormalizationError
from .tolerances import TOL_NORM

Position = tuple[int, ...]

#: Lattice coordinates are kept inside the signed 64-bit range; shifts that
#: would leave it raise instead of wrapping (see shifts.apply_shift).
COORD_LIMIT = 2**63 - 1


class WalkState:
    """Sparse map from lattice positions to length-n amplitude vectors."""

    __slots__ = ("d", "n", "_amps")

    def __init__(self, d: int, n: int, amplitudes: dict[Position, np.ndarray]):
        """Keep length-n complex128 vectors the package built, none all zero, and freeze them."""
        for vec in amplitudes.values():
            vec.flags.writeable = False
        self.d = d
        self.n = n
        self._amps = amplitudes

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        d: int,
        n: int,
        entries: Iterable[tuple[Union[Position, Iterable[int]], int, complex]],
        normalize: bool = False,
        norm_tol: float = TOL_NORM,
    ) -> "WalkState":
        """Build a state from (position, coin index, amplitude) triples.

        Duplicate (position, coin) entries accumulate, and positions whose
        amplitudes cancel to exact zero are dropped. Unless ``normalize``
        is set, the total norm must already be 1 within ``norm_tol``;
        nothing is ever rescaled silently.
        """
        if d < 1:
            raise DimensionMismatchError(f"spatial dimension must be >= 1, got {d}")
        if n < 1:
            raise DimensionMismatchError(f"coin dimension must be >= 1, got {n}")
        amps: dict[Position, np.ndarray] = {}
        for pos, coin, amp in entries:
            key = tuple(int(c) for c in pos)
            if len(key) != d:
                raise DimensionMismatchError(
                    f"position {key} has {len(key)} coordinates, expected {d}"
                )
            coin = int(coin)
            if not 0 <= coin < n:
                raise DimensionMismatchError(
                    f"coin index {coin} out of range for coin dimension {n}"
                )
            vec = amps.setdefault(key, np.zeros(n, dtype=np.complex128))
            vec[coin] += complex(amp)
        for key, vec in amps.items():
            if not np.isfinite(vec).all():
                raise ValueError(f"non-finite amplitude at position {key}")
        state = cls(d, n, {pos: vec for pos, vec in amps.items() if vec.any()})
        norm = state.norm()
        if normalize:
            if norm == 0.0:
                raise NormalizationError("cannot normalize the zero state")
            scaled = {pos: vec / norm for pos, vec in state.items()}
            return cls(d, n, {pos: vec for pos, vec in scaled.items() if vec.any()})
        if abs(norm - 1.0) > norm_tol:
            raise NormalizationError(
                f"state norm {norm!r} is not 1 within {norm_tol:.1e} "
                f"(set normalize to rescale explicitly)"
            )
        return state

    @classmethod
    def localized(cls, d: int, n: int, position: Iterable[int], coin: int) -> "WalkState":
        """Unit amplitude on a single coin state at a single position."""
        return cls.from_entries(d, n, [(tuple(position), coin, 1.0)])

    # -- accessors ---------------------------------------------------------

    def positions(self) -> list[Position]:
        return list(self._amps.keys())

    def items(self):
        return self._amps.items()

    def amplitude(self, position: Iterable[int], coin: int) -> complex:
        """Amplitude at (position, coin); exact 0 for unoccupied slots."""
        if not 0 <= coin < self.n:
            raise DimensionMismatchError(f"coin index {coin} out of range")
        vec = self._amps.get(tuple(int(c) for c in position))
        if vec is None:
            return 0j
        return complex(vec[coin])

    def norm(self) -> float:
        total = 0.0
        for vec in self._amps.values():
            total += float(np.vdot(vec, vec).real)
        return math.sqrt(total)

    def __len__(self) -> int:
        return len(self._amps)

    def __repr__(self) -> str:
        return (
            f"WalkState(d={self.d}, n={self.n}, sites={len(self._amps)}, "
            f"norm={self.norm():.6f})"
        )


def _check_compatible(a: WalkState, b: WalkState) -> None:
    if a.d != b.d or a.n != b.n:
        raise DimensionMismatchError(
            f"incompatible states: (d={a.d}, n={a.n}) vs (d={b.d}, n={b.n})"
        )


def inner_product(a: WalkState, b: WalkState) -> complex:
    """<a|b> over the shared support; conjugation is on the first argument."""
    _check_compatible(a, b)
    total = 0j
    for pos, vec in a.items():
        other = b._amps.get(pos)
        if other is not None:
            total += complex(np.vdot(vec, other))
    return total


def l2_distance(a: WalkState, b: WalkState) -> float:
    """l2 norm of a - b over the union of supports (missing slots are 0)."""
    _check_compatible(a, b)
    total = 0.0
    for pos, vec in a.items():
        other = b._amps.get(pos)
        diff = vec if other is None else vec - other
        total += float(np.vdot(diff, diff).real)
    for pos, vec in b.items():
        if pos not in a._amps:
            total += float(np.vdot(vec, vec).real)
    return math.sqrt(total)
