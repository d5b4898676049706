"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <name>: PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output on failure) and enforces the
criterion's tolerance and, where stated, its runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import fixed_slot_part, random_sparse_state, random_unitary, random_zero_sum_row
from revivalwalk import (
    MomentumPropagator,
    WalkInstance,
    WalkState,
    build_cyclic_coin,
    build_general_coin_1d,
    build_instance,
    build_partial_cycle_coin,
    build_shift_table,
    characteristic_eigenvalues,
    conventional_two_state_shifts,
    dense_oracle_evolve,
    detect_revival,
    evaluate_propagator,
    evolve,
    golden_config,
    l2_distance,
    random_cyclic_phases,
    reproduce_table,
    spectrum_distance,
    spectrum_sweep,
    trajectory,
)
from revivalwalk.momentum import roots_of_unity


@contextmanager
def criterion(name, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"{name}: runtime {elapsed:.2f}s exceeds {budget}s budget")
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def walk_norms(instance, steps):
    return [state.norm() for _, state, *_ in trajectory(instance, steps)]


@pytest.mark.parametrize("which,period", [(1, 2), (2, 3), (3, 3)])
def test_golden_table_reproduction(which, period):
    with criterion(f"table-{which}-reproduction", budget=1.0):
        comparison = reproduce_table(which)
        assert comparison.max_abs_deviation <= 1e-12
        assert comparison.period == period
        assert comparison.passed


def test_cyclic_coin_period_properties():
    with criterion("cyclic-coin-property-suite", budget=10.0):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            coin = build_cyclic_coin(random_cyclic_phases(n, rng))
            w = np.asarray(coin.matrix)
            powers = [np.eye(n, dtype=complex)]
            for _ in range(n):
                powers.append(powers[-1] @ w)
            # full cycle closes...
            assert np.abs(powers[n] - np.eye(n)).max() <= 1e-10
            # ...and no earlier power even touches the diagonal
            for m in range(1, n):
                assert np.abs(np.diagonal(powers[m])).max() == 0.0


def test_partial_cycle_property_suite():
    with criterion("partial-cycle-property-suite"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(3, 9))
            r = int(rng.integers(2, n + 1))
            coin = build_partial_cycle_coin(n, r, random_cyclic_phases(r, rng))
            w = np.asarray(coin.matrix)
            assert np.abs(np.linalg.matrix_power(w, r) - np.eye(n)).max() <= 1e-10

            shifts = build_shift_table(
                [random_zero_sum_row(r, rng) + [0] * (n - r) for _ in range(d)]
            )
            origin = (0,) * d
            if r < n:
                cycled, fixed = int(rng.integers(r)), int(rng.integers(r, n))
                amp = 1.0 / math.sqrt(2.0)
                initial = WalkState.from_entries(
                    d, n, [(origin, cycled, amp), ((2,) + origin[1:], fixed, amp)]
                )
            else:
                initial = WalkState.localized(d, n, origin, int(rng.integers(n)))
            instance = WalkInstance(coin=coin, shifts=shifts, initial=initial)
            # Fixed slots have an identity coin block and zero shifts, so
            # their amplitudes stay parked bit for bit.
            assert fixed_slot_part(evolve(instance, 20), r) == fixed_slot_part(initial, r)
            norms = walk_norms(instance, 20)
            assert all(abs(v - 1.0) <= 1e-9 for v in norms)


def test_any_dimension_any_period_revivals():
    with criterion("any-dimension-any-period-suite", budget=30.0):
        rng = np.random.default_rng(4096)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            period = int(rng.integers(2, 7))
            coin = build_cyclic_coin(random_cyclic_phases(period, rng))
            shifts = build_shift_table(
                [random_zero_sum_row(period, rng) for _ in range(d)]
            )
            initial = WalkState.localized(d, period, (0,) * d, int(rng.integers(period)))
            instance = WalkInstance(coin=coin, shifts=shifts, initial=initial)
            report = detect_revival(instance, period + 3)
            assert report.period == period
            assert all(f <= 1e-12 for f in report.fidelity_series[1:period])
            assert all(abs(v - 1.0) <= 1e-9 for v in walk_norms(instance, period))


def test_flat_spectrum_claims():
    with criterion("roots-of-unity-spectrum-suite"):
        rng = np.random.default_rng(555)

        def check_flat(prop):
            n = prop.n
            reference = None
            for _ in range(10):
                k = rng.uniform(-math.pi, math.pi, size=prop.d)
                v = evaluate_propagator(prop, k)
                numeric = np.linalg.eigvals(v)
                assert spectrum_distance(numeric, roots_of_unity(n)) <= 1e-8
                closed = characteristic_eigenvalues(prop, k)
                assert spectrum_distance(closed, numeric) <= 1e-8
                if reference is None:
                    reference = numeric
                else:
                    assert spectrum_distance(reference, numeric) <= 1e-8

        for which in (1, 2, 3):
            config = golden_config(which)
            instance = build_instance(config)
            check_flat(MomentumPropagator(coin=instance.coin, shifts=instance.shifts))

        for _ in range(50):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 3))
            prop = MomentumPropagator(
                coin=build_cyclic_coin(random_cyclic_phases(n, rng)),
                shifts=build_shift_table(
                    [random_zero_sum_row(n, rng) for _ in range(d)]
                ),
            )
            check_flat(prop)

        # counter-check: a rotation coin's spectrum disperses with momentum
        dispersive = MomentumPropagator(
            coin=build_general_coin_1d(math.pi / 4, 0.0, 0.0),
            shifts=conventional_two_state_shifts(),
        )
        assert spectrum_sweep(dispersive, 10).k_independent is False


def test_sparse_engine_matches_dense_oracle():
    with criterion("dense-oracle-equivalence", budget=60.0):
        rng = np.random.default_rng(31337)

        def compare(instance, t, window):
            dense = dense_oracle_evolve(instance, t, window)
            sparse = evolve(instance, t)
            assert l2_distance(dense, sparse) <= 1e-12
            assert abs(sparse.norm() - 1.0) <= 1e-9

        for which, reach in ((1, 1), (2, 5), (3, 2)):
            config = golden_config(which)
            instance = build_instance(config)
            radius = max(
                abs(c) for pos in instance.initial.positions() for c in pos
            )
            for t in (1, 2, 3):
                window = tuple(radius + reach * t for _ in range(config.d))
                compare(instance, t, window)

        for case in range(25):
            d = 1 if case % 2 == 0 else 2
            n = int(rng.integers(2, 6))
            bound = 2 if d == 1 else 1
            t = int(rng.integers(1, 13)) if d == 1 else int(rng.integers(1, 7))
            coin = build_cyclic_coin(random_cyclic_phases(n, rng))
            shifts = build_shift_table(
                [random_zero_sum_row(n, rng, bound=bound) for _ in range(d)]
            )
            initial = random_sparse_state(d, n, rng, radius=1, sites=2)
            instance = WalkInstance(coin=coin, shifts=shifts, initial=initial)
            compare(instance, t, tuple(1 + bound * t for _ in range(d)))


def test_probability_conservation_everywhere():
    with criterion("probability-conservation"):
        rng = np.random.default_rng(99)
        instances = [build_instance(golden_config(which)) for which in (1, 2, 3)]
        instances.append(
            WalkInstance(
                coin=build_general_coin_1d(math.pi / 4, 0.0, 0.0),
                shifts=conventional_two_state_shifts(),
                initial=WalkState.localized(1, 2, (0,), 0),
            )
        )
        instances.append(
            WalkInstance(
                coin=build_partial_cycle_coin(5, 3, random_cyclic_phases(3, rng)),
                shifts=build_shift_table([(1, -2, 1, 0, 0)]),
                initial=random_sparse_state(1, 5, rng),
            )
        )
        for _ in range(10):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 3))
            instances.append(
                WalkInstance(
                    coin=build_cyclic_coin(random_cyclic_phases(n, rng)),
                    shifts=build_shift_table(
                        [random_zero_sum_row(n, rng) for _ in range(d)]
                    ),
                    initial=random_sparse_state(d, n, rng),
                )
            )
        for instance in instances:
            for value in walk_norms(instance, 25):
                assert abs(value - 1.0) <= 1e-9


def test_random_unitary_helper_is_sound():
    # keep the shared generator honest: it feeds several suites above
    rng = np.random.default_rng(1)
    for n in (2, 5, 8):
        u = random_unitary(n, rng)
        assert np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-12
