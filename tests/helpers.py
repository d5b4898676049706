"""Shared generators for randomized test cases."""

from __future__ import annotations

import numpy as np

from revivalwalk import (
    WalkInstance,
    WalkState,
    build_cyclic_coin,
    build_shift_table,
    random_cyclic_phases,
)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with phase-fixed diagonal."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_zero_sum_row(n: int, rng: np.random.Generator, bound: int = 3) -> list[int]:
    """Integer row in [-bound, bound] with zero sum and >= 2 nonzero entries."""
    while True:
        row = rng.integers(-bound, bound + 1, size=n)
        if row.sum() == 0 and np.count_nonzero(row) >= 2:
            return [int(a) for a in row]


def random_sparse_state(
    d: int, n: int, rng: np.random.Generator, radius: int = 2, sites: int = 3
) -> WalkState:
    """Normalized random state supported on a few sites near the origin."""
    entries = []
    seen = set()
    while len(seen) < sites:
        pos = tuple(int(c) for c in rng.integers(-radius, radius + 1, size=d))
        seen.add(pos)
    for pos in seen:
        for coin in range(n):
            amp = complex(rng.normal(), rng.normal())
            entries.append((pos, coin, amp))
    return WalkState.from_entries(d, n, entries, normalize=True)


def fixed_slot_part(state: WalkState, r: int) -> dict:
    """Nonzero amplitudes on coin slots r..n-1, keyed by (position, slot)."""
    return {
        (pos, j): vec[j] for pos, vec in state.items() for j in range(r, state.n) if vec[j] != 0
    }


def random_cyclic_instance(
    d: int,
    n: int,
    rng: np.random.Generator,
    shift_bound: int = 3,
    initial: WalkState | None = None,
) -> WalkInstance:
    """Cyclic coin with valid random phases and random zero-sum shifts."""
    coin = build_cyclic_coin(random_cyclic_phases(n, rng))
    shifts = build_shift_table(
        [random_zero_sum_row(n, rng, bound=shift_bound) for _ in range(d)]
    )
    if initial is None:
        initial = WalkState.localized(d, n, (0,) * d, int(rng.integers(n)))
    return WalkInstance(coin=coin, shifts=shifts, initial=initial)
