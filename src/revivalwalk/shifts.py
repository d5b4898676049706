"""Integer displacement tables and the position shift they induce.

A shift table assigns each coin slot j an integer displacement per
spatial dimension r. Revival constructions require every dimension's
displacements to sum to zero, so that is a hard error here; an all-zero
row (an inert dimension) is allowed but flagged, since walks that park
amplitude need zero shifting rules.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoordinateOverflowError, DimensionMismatchError, ZeroSumError
from .states import COORD_LIMIT, WalkState, sort_rows


@dataclass(frozen=True)
class ShiftTable:
    """d x n grid of integer displacements, one row per spatial dimension."""

    displacements: tuple[tuple[int, ...], ...]
    inert_dimensions: tuple[int, ...] = ()

    @property
    def d(self) -> int:
        return len(self.displacements)

    @property
    def n(self) -> int:
        return len(self.displacements[0])

    @cached_property
    def reach(self) -> int:
        """Largest |displacement| in the table."""
        return max(abs(a) for row in self.displacements for a in row)

    @cached_property
    def moves(self) -> np.ndarray:
        """n x d int64 array: row j is slot j's displacement vector (needs ``reach`` < 2^63)."""
        moves = np.array(self.displacements, dtype=np.int64).T.copy()
        moves.flags.writeable = False
        return moves


def build_shift_table(displacements: Sequence[Sequence[int]]) -> ShiftTable:
    """Validate a d x n displacement grid.

    Every row must sum to zero exactly (integer arithmetic, no tolerance),
    so it holds either no nonzero entries (inert, warned about) or at
    least two of them.
    """
    rows = [tuple(int(a) for a in row) for row in displacements]
    if not rows:
        raise DimensionMismatchError("shift table needs at least one dimension")
    n = len(rows[0])
    if n < 2:
        raise DimensionMismatchError(f"shift table needs n >= 2 coin slots, got {n}")
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("shift table rows have unequal lengths")
    inert = []
    for r, row in enumerate(rows):
        residual = sum(row)
        if residual != 0:
            raise ZeroSumError(r, residual)
        if not any(row):
            inert.append(r)
    if inert:
        warnings.warn(
            f"shift table has inert (all-zero) dimension(s) {tuple(inert)}; "
            "the walk never moves along them",
            stacklevel=2,
        )
    return ShiftTable(displacements=tuple(rows), inert_dimensions=tuple(inert))


def usual_shift_choice(n: int) -> list[int]:
    """Symmetric displacement menu for n coin slots, ascending, zero-sum.

    Even n: -n/2 .. -1, 1 .. n/2. Odd n: the same with 0 in the middle.
    """
    if n < 2:
        raise DimensionMismatchError(f"need n >= 2, got {n}")
    half = n // 2
    if n % 2 == 0:
        return [a for a in range(-half, half + 1) if a != 0]
    return list(range(-half, half + 1))


def conventional_two_state_shifts() -> ShiftTable:
    """The standard two-state line walk: slot 0 steps -1, slot 1 steps +1."""
    return build_shift_table([(-1, 1)])


def apply_shift(state: WalkState, table: ShiftTable) -> WalkState:
    """Move each coin slot's amplitude by its displacement vector.

    Pure relocation: the multiset of amplitudes is unchanged, so the norm
    is preserved exactly and flipping every displacement's sign inverts
    the move. Two amplitudes that land on one position come from
    different slots (positions are unique), so the merge only places
    them. A coordinate leaving the signed 64-bit range raises instead of
    wrapping; a wrapped lattice would fake recurrences.
    """
    if state.d != table.d or state.n != table.n:
        raise DimensionMismatchError(
            f"state (d={state.d}, n={state.n}) does not match "
            f"shift table (d={table.d}, n={table.n})"
        )
    coords = state.coords
    rows, slots = np.nonzero(state.amps)
    widest = max(int(coords.max(initial=0)), -int(coords.min(initial=0)))
    if widest + table.reach <= COORD_LIMIT:
        targets = coords[rows] + table.moves[slots]
    else:
        targets = _exact_targets(coords, rows, slots, table)
    order, targets, first = sort_rows(targets)
    rows, slots, site = rows[order], slots[order], np.cumsum(first) - 1
    amps = np.zeros((np.count_nonzero(first), state.n), dtype=np.complex128)
    amps[site, slots] = state.amps[rows, slots]
    return WalkState(targets[first], amps)


def _exact_targets(coords: np.ndarray, rows: np.ndarray, slots: np.ndarray,
                   table: ShiftTable) -> np.ndarray:
    """Targets of the moved (row, slot) amplitudes, checked one by one in Python ints."""
    cols = list(zip(*table.displacements))  # per coin slot, a d-vector
    positions = coords.tolist()
    targets = []
    for i, j in zip(rows.tolist(), slots.tolist()):
        target = [x + a for x, a in zip(positions[i], cols[j])]
        if any(abs(c) > COORD_LIMIT for c in target):
            raise CoordinateOverflowError(
                f"shift moved position {tuple(positions[i])} outside the supported "
                f"coordinate range (slot {j}, displacement {cols[j]})"
            )
        targets.append(target)
    return np.array(targets, dtype=np.int64).reshape(-1, coords.shape[1])
