"""Sparse coin-walker states on d-dimensional integer lattices.

A :class:`WalkState` holds its occupied lattice positions as an S x d
``int64`` array, sorted lexicographically with no repeats, and their
amplitudes as an S x n ``complex128`` array, one row per position and
one column per coin basis state. Coin indices are 0-based throughout the
Python API; the JSON config layer speaks 1-based indices to match the
usual bra-ket labelling.

States are value-semantic: every operation returns a new state, both
arrays are frozen (non-writeable), and rows that are exactly zero are
never stored. Only exact zeros are dropped, never tiny amplitudes, so
that support structure stays meaningful in revival checks. Outside input
enters through :meth:`WalkState.from_entries` (which ``localized`` and
the config layer call) and is validated there, once; the constructor
wraps arrays that the package built, unchecked.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import Union

import numpy as np

from .errors import CoordinateOverflowError, DimensionMismatchError, NormalizationError
from .tolerances import TOL_NORM

Position = tuple[int, ...]

#: Lattice coordinates are kept inside the signed 64-bit range; shifts that
#: would leave it raise instead of wrapping (see shifts.apply_shift).
COORD_LIMIT = 2**63 - 1


class WalkState:
    """Sorted lattice positions with one length-n amplitude row each."""

    __slots__ = ("d", "n", "coords", "amps")

    def __init__(
        self,
        coords: np.ndarray | int,
        amps: np.ndarray | int,
        rows: Mapping[Position, Iterable[complex]] | None = None,
    ):
        """Keep arrays the package built and freeze them.

        ``coords`` is S x d ``int64``, lexicographically sorted and unique;
        ``amps`` is S x n ``complex128`` with no all-zero row. The mapping
        form ``WalkState(d, n, rows)`` takes {position: length-n amplitude
        row}, no row all zero, and sorts it into the two arrays.
        """
        if rows is not None:
            d, n = coords, amps
            coords = np.array(list(rows), dtype=np.int64).reshape(-1, d)
            amps = np.array(list(rows.values()), dtype=np.complex128).reshape(-1, n)
            if len(coords) > 1:
                order, coords, _ = sort_rows(coords)
                amps = amps[order]
        coords.flags.writeable = False
        amps.flags.writeable = False
        self.d = coords.shape[1]
        self.n = amps.shape[1]
        self.coords = coords
        self.amps = amps

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
        rows: dict[Position, list[complex]] = {}
        pruned = False
        for pos, coin, amp in entries:
            key = tuple(map(int, pos))
            if len(key) != d:
                raise DimensionMismatchError(
                    f"position {key} has {len(key)} coordinates, expected {d}"
                )
            coin = int(coin)
            if not 0 <= coin < n:
                raise DimensionMismatchError(
                    f"coin index {coin} out of range for coin dimension {n}"
                )
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0j] * n
            row[coin] += complex(amp)
            if not row[coin]:
                pruned = True  # a zero entry or a cancellation may have emptied the row
        try:
            state = cls(d, n, rows)
            inside = state.coords.min(initial=0) >= -COORD_LIMIT  # int64 also holds -2^63
        except OverflowError:
            inside = False
        if not inside:
            key = next(k for k in rows if any(abs(c) > COORD_LIMIT for c in k))
            raise CoordinateOverflowError(f"position {key} is outside the supported coordinate range")
        norm = state.norm()
        if not math.isfinite(norm):  # any non-finite entry makes the norm non-finite
            finite = np.isfinite(state.amps).all(axis=1)
            if not finite.all():
                raise ValueError(
                    f"non-finite amplitude at position {state.positions()[int(finite.argmin())]}"
                )
        if pruned:
            state = state._nonzero_rows()
        if normalize:
            if norm == 0.0:
                raise NormalizationError("cannot normalize the zero state")
            return cls(state.coords, state.amps / norm)._nonzero_rows()
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

    def _nonzero_rows(self) -> "WalkState":
        keep = self.amps.any(axis=1)
        return self if keep.all() else WalkState(self.coords[keep], self.amps[keep])

    # -- accessors ---------------------------------------------------------

    def positions(self) -> list[Position]:
        return list(map(tuple, self.coords.tolist()))

    def items(self) -> list[tuple[Position, np.ndarray]]:
        """(position, amplitude row) pairs in sorted position order."""
        return list(zip(self.positions(), self.amps))

    def amplitude(self, position: Iterable[int], coin: int) -> complex:
        """Amplitude at (position, coin); exact 0 for unoccupied slots."""
        if not 0 <= coin < self.n:
            raise DimensionMismatchError(f"coin index {coin} out of range")
        key = tuple(map(int, position))
        if len(key) != self.d or any(abs(c) > COORD_LIMIT for c in key):
            return 0j
        hit = np.flatnonzero((self.coords == key).all(axis=1))
        return complex(self.amps[hit[0], coin]) if len(hit) else 0j

    def norm(self) -> float:
        return math.sqrt(float(np.vdot(self.amps, self.amps).real))

    def probabilities(self) -> np.ndarray:
        """Per-row probability: re^2 + im^2 of each slot, added in slot order."""
        re, im = self.amps.real, self.amps.imag
        p = np.zeros(len(self.amps))
        for j in range(self.n):
            p = p + re[:, j] ** 2 + im[:, j] ** 2
        return p

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return (
            f"WalkState(d={self.d}, n={self.n}, sites={len(self)}, "
            f"norm={self.norm():.6f})"
        )


def _check_compatible(a: WalkState, b: WalkState) -> None:
    if a.d != b.d or a.n != b.n:
        raise DimensionMismatchError(
            f"incompatible states: (d={a.d}, n={a.n}) vs (d={b.d}, n={b.n})"
        )


def sort_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable lexicographic sort of the rows of an integer array.

    Returns the order, the sorted rows, and a mask of the sorted rows that
    start a run of equal rows.
    """
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=first[1:])
    return order, keys, first


Shared = tuple[np.ndarray, np.ndarray]


def shared_rows(a: WalkState, b: WalkState) -> Shared:
    """Row indices (in a, in b) of the positions both states occupy, in sorted order.

    Both coordinate arrays are sorted and unique, so after a stable sort of
    their concatenation a shared position is a run of two rows, a's first.
    """
    order, _, first = sort_rows(np.concatenate((a.coords, b.coords)))
    same = ~first[1:]
    return order[:-1][same], order[1:][same] - len(a)


def inner_product(a: WalkState, b: WalkState, shared: Shared | None = None) -> complex:
    """<a|b> over the shared support; conjugation is on the first argument.

    ``shared`` is ``shared_rows(a, b)``, for a caller that already joined
    the two states.
    """
    _check_compatible(a, b)
    ia, ib = shared_rows(a, b) if shared is None else shared
    return complex(np.vdot(a.amps[ia], b.amps[ib]))


def difference(a: WalkState, b: WalkState, shared: Shared | None = None) -> np.ndarray:
    """Rows of a - b, one per position in either support (missing rows are 0)."""
    _check_compatible(a, b)
    ia, ib = shared_rows(a, b) if shared is None else shared
    only_a, only_b = np.ones(len(a), dtype=bool), np.ones(len(b), dtype=bool)
    only_a[ia] = only_b[ib] = False
    return np.concatenate((a.amps[ia] - b.amps[ib], a.amps[only_a], -b.amps[only_b]))


def l2_distance(a: WalkState, b: WalkState, shared: Shared | None = None) -> float:
    """l2 norm of a - b over the union of supports (missing slots are 0).

    ``shared``, when given, is ``shared_rows(a, b)``.
    """
    diff = difference(a, b, shared)
    return math.sqrt(float(np.vdot(diff, diff).real))
