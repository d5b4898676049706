"""Cross-validating the sparse engine against a brute-force operator.

The lattice oracle truncates the lattice to a window, assembles the
entire one-step operator entrywise as (row, col, value) triplets, and
applies it literally. It refuses windows the walk could outrun rather
than letting a boundary fake a recurrence. On every instance the two
routes agree to machine precision.
"""

import math

import numpy as np

from revivalwalk import (
    WalkInstance,
    WalkState,
    WindowTooSmallError,
    build_cyclic_coin,
    build_shift_table,
    dense_oracle_evolve,
    evolve,
    l2_distance,
    random_cyclic_phases,
)

amp = 1 / math.sqrt(3)
instance = WalkInstance(
    coin=build_cyclic_coin([0.0, 2 * math.pi / 3, 4 * math.pi / 3]),
    shifts=build_shift_table([(-5, 3, 2)]),
    initial=WalkState.from_entries(
        1, 3, [((3,), 0, amp), ((2,), 1, amp), ((1,), 2, amp)]
    ),
)

for t in range(4):
    gap = l2_distance(dense_oracle_evolve(instance, t, (18,)), evolve(instance, t))
    print(f"t = {t}: |sparse - dense| = {gap:.2e}")

print("\na window the walk can outrun is refused:")
try:
    dense_oracle_evolve(instance, 3, (10,))
except WindowTooSmallError as exc:
    print(" ", exc)

rng = np.random.default_rng(11)
print("\nrandom 2-d instance:")
walk = WalkInstance(
    coin=build_cyclic_coin(random_cyclic_phases(4, rng)),
    shifts=build_shift_table([(1, -1, 1, -1), (0, 1, -1, 0)]),
    initial=WalkState.localized(2, 4, (0, 0), 2),
)
for t in (2, 4):
    gap = l2_distance(dense_oracle_evolve(walk, t, (t, t)), evolve(walk, t))
    print(f"t = {t}: |sparse - dense| = {gap:.2e}")
