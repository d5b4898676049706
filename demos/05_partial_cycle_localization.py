"""Shorter periods than the coin dimension, at the price of parked amplitude.

A partial-cycle coin only rotates the first r of n slots and fixes the
rest. Give the fixed slots a zero shifting rule and the walk revives
every r steps, but any amplitude placed on those slots never moves: the
walk has localized position states baked in.
"""

import math

from revivalwalk import (
    WalkInstance,
    WalkState,
    build_partial_cycle_coin,
    build_shift_table,
    detect_revival,
    evolve,
    matrix_order,
)

n, r = 5, 3
coin = build_partial_cycle_coin(n, r, [0.9, -0.4, -0.5])
print(f"coin dimension n = {n}, cycle length r = {r}")
print("matrix order:", matrix_order(coin.matrix, 10))

shifts = build_shift_table([(2, -1, -1, 0, 0)])
amp = 1 / math.sqrt(2)
initial = WalkState.from_entries(1, n, [((0,), 0, amp), ((4,), 4, amp)])
instance = WalkInstance(coin=coin, shifts=shifts, initial=initial)

print("\nhalf the amplitude rides the cycle, half is parked on slot 5 at x = 4")
for t in range(r + 1):
    state = evolve(instance, t)
    moving = [
        (pos[0], slot + 1)
        for pos, vec in sorted(state.items())
        for slot, v in enumerate(vec)
        if v != 0
    ]
    print(f"t = {t}: occupied (x, slot) pairs: {moving}")

print("\nparked amplitude stayed put, bit for bit, for 20 steps:",
      evolve(instance, 20).amplitude((4,), 4) == initial.amplitude((4,), 4))
print("revival period:", detect_revival(instance, 10).period)
