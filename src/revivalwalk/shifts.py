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

import numpy as np

from .errors import CoordinateOverflowError, DimensionMismatchError, ZeroSumError
from .states import COORD_LIMIT, Position, WalkState


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
    the move. A coordinate leaving the signed 64-bit range raises instead
    of wrapping; a wrapped lattice would fake recurrences.
    """
    if state.d != table.d or state.n != table.n:
        raise DimensionMismatchError(
            f"state (d={state.d}, n={state.n}) does not match "
            f"shift table (d={table.d}, n={table.n})"
        )
    cols = list(zip(*table.displacements))  # per coin slot, a d-vector
    moved: dict[Position, np.ndarray] = {}
    for pos, vec in state.items():
        for j in range(state.n):
            amp = vec[j]
            if amp == 0:
                continue
            target = tuple([x + a for x, a in zip(pos, cols[j])])  # sized once, unlike a genexpr
            if any(abs(c) > COORD_LIMIT for c in target):
                raise CoordinateOverflowError(
                    f"shift moved position {pos} outside the supported "
                    f"coordinate range (slot {j}, displacement {cols[j]})"
                )
            slot = moved.get(target)
            if slot is None:
                slot = np.zeros(state.n, dtype=np.complex128)
                moved[target] = slot
            slot[j] += amp
    return WalkState(state.d, state.n, moved)
