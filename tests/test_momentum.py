import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_cyclic_instance, random_sparse_state, random_zero_sum_row
from revivalwalk import (
    ConstraintError,
    DimensionMismatchError,
    MomentumPropagator,
    OracleTooLargeError,
    OrderMismatchError,
    WalkInstance,
    WalkState,
    WindowTooSmallError,
    build_custom_coin,
    build_cyclic_coin,
    build_general_coin_1d,
    build_instance,
    build_partial_cycle_coin,
    build_shift_table,
    characteristic_eigenvalues,
    conventional_two_state_shifts,
    dense_oracle_evolve,
    evaluate_propagator,
    evolve,
    golden_config,
    l2_distance,
    propagator_order,
    random_cyclic_phases,
    spectrum_distance,
    spectrum_sweep,
)
from revivalwalk.linalg import is_unitary
from revivalwalk.momentum import (ORACLE_BUDGET_BYTES, canonical_order, momentum_samples,
                                  roots_of_unity, wrap_momentum)
from revivalwalk.shifts import usual_shift_choice
from revivalwalk.tolerances import TOL_MAT


def three_state_prop():
    coin = build_cyclic_coin([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    shifts = build_shift_table([(-5, 3, 2)])
    return MomentumPropagator(coin=coin, shifts=shifts)


def hadamard_prop():
    return MomentumPropagator(
        coin=build_general_coin_1d(math.pi / 4, 0.0, 0.0),
        shifts=conventional_two_state_shifts(),
    )


def test_wrap_momentum_half_open_interval():
    assert wrap_momentum(math.pi) == -math.pi
    assert wrap_momentum(-math.pi) == -math.pi
    assert math.isclose(wrap_momentum(2 * math.pi + 0.3), 0.3, abs_tol=1e-12)
    assert wrap_momentum(0.0) == 0.0


def test_evaluate_swap_at_zero_momentum():
    prop = MomentumPropagator(
        coin=build_cyclic_coin([0.0, 0.0]), shifts=build_shift_table([(-1, 1)])
    )
    np.testing.assert_array_equal(
        evaluate_propagator(prop, [0.0]), np.array([[0, 1], [1, 0]], dtype=complex)
    )


def test_evaluate_three_state_entries():
    prop = three_state_prop()
    k = 0.7
    v = evaluate_propagator(prop, [k])
    assert cmath.isclose(v[0, 2], cmath.exp(-1j * -5 * k), abs_tol=1e-14)
    assert cmath.isclose(
        v[1, 0], cmath.exp(-1j * 3 * k) * cmath.exp(2j * math.pi / 3), abs_tol=1e-14
    )
    assert cmath.isclose(
        v[2, 1], cmath.exp(-1j * 2 * k) * cmath.exp(4j * math.pi / 3), abs_tol=1e-14
    )
    product = v[0, 2] * v[1, 0] * v[2, 1]
    assert cmath.isclose(product, 1.0, abs_tol=1e-12)


def test_evaluate_wraps_momentum_components():
    prop = three_state_prop()
    a = evaluate_propagator(prop, [1.2])
    b = evaluate_propagator(prop, [1.2 + 2 * math.pi])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_evaluate_accepts_scalar_momentum_in_1d():
    prop = three_state_prop()
    np.testing.assert_array_equal(
        evaluate_propagator(prop, 0.9), evaluate_propagator(prop, [0.9])
    )


def test_evaluate_momentum_shape_checked():
    with pytest.raises(DimensionMismatchError):
        evaluate_propagator(three_state_prop(), [0.1, 0.2])


def test_evaluate_stacks_momenta_row_by_row():
    prop = MomentumPropagator(
        coin=build_cyclic_coin([0.0, 2 * math.pi / 3, 4 * math.pi / 3]),
        shifts=build_shift_table([(1, 1, -2), (-1, -1, 2)]),
    )
    ks = np.random.default_rng(8).uniform(-4.0, 4.0, size=(5, 2))
    stack = evaluate_propagator(prop, ks)
    closed = characteristic_eigenvalues(prop, ks)
    assert stack.shape == (5, 3, 3) and closed.shape == (5, 3)
    for k, v, values in zip(ks, stack, closed):
        np.testing.assert_allclose(v, evaluate_propagator(prop, k), atol=1e-14)
        np.testing.assert_allclose(values, characteristic_eigenvalues(prop, k), atol=1e-14)


def test_evaluate_is_unitary_at_random_momenta():
    rng = np.random.default_rng(3)
    prop = three_state_prop()
    for _ in range(5):
        assert is_unitary(evaluate_propagator(prop, rng.uniform(-math.pi, math.pi, 1)))


def test_nonzero_pattern_matches_coin():
    rng = np.random.default_rng(4)
    coin = build_partial_cycle_coin(4, 2, random_cyclic_phases(2, rng))
    prop = MomentumPropagator(coin=coin, shifts=build_shift_table([(1, -1, 0, 0)]))
    v = evaluate_propagator(prop, [0.4])
    np.testing.assert_array_equal(v != 0, np.asarray(coin.matrix) != 0)


def test_propagator_coin_shift_dimensions_checked():
    with pytest.raises(DimensionMismatchError):
        MomentumPropagator(
            coin=build_cyclic_coin([0.0, 0.0]), shifts=build_shift_table([(-1, 0, 1)])
        )


def test_propagator_order_two_state():
    prop = MomentumPropagator(
        coin=build_cyclic_coin([4 * math.pi / 3, 2 * math.pi / 3]),
        shifts=build_shift_table([(-1, 1)]),
    )
    assert propagator_order(prop, 10, 8) == 2


def test_propagator_order_plane():
    prop = MomentumPropagator(
        coin=build_cyclic_coin([0.0, 2 * math.pi / 3, 4 * math.pi / 3]),
        shifts=build_shift_table([(1, 1, -2), (-1, -1, 2)]),
    )
    assert propagator_order(prop, 10, 8) == 3


def test_propagator_order_six_state_usual_shifts():
    rng = np.random.default_rng(6)
    prop = MomentumPropagator(
        coin=build_cyclic_coin(random_cyclic_phases(6, rng)),
        shifts=build_shift_table([usual_shift_choice(6)]),
    )
    assert propagator_order(prop, 10, 12) == 6


def test_three_state_order_and_spectrum():
    prop = three_state_prop()
    assert propagator_order(prop, 5, 8) == 3
    report = spectrum_sweep(prop, 6)
    assert report.k_independent and report.matches_roots_of_unity


def test_propagator_order_absent_when_global_phase_blocks_revival():
    # Off-diagonal phases summing to 0.6 rad leave V^2 = e^{0.6i} I at
    # every momentum, so no finite order exists anywhere.
    coin = build_custom_coin(
        np.array([[0, cmath.exp(0.25j)], [cmath.exp(0.35j), 0]], dtype=complex)
    )
    prop = MomentumPropagator(coin=coin, shifts=build_shift_table([(-1, 1)]))
    assert propagator_order(prop, 5, 16) is None


def test_propagator_order_mismatch_for_dispersive_walk():
    # The rotation-style coin squares to I at the edge momenta but has no
    # finite order at generic ones; the sample set must expose that.
    with pytest.raises(OrderMismatchError):
        propagator_order(hadamard_prop(), 6, 16)


def test_characteristic_eigenvalues_are_roots_of_unity():
    prop = three_state_prop()
    for k in (0.0, 0.4, -2.2):
        values = characteristic_eigenvalues(prop, [k])
        assert spectrum_distance(values, roots_of_unity(3)) <= 1e-10


def test_characteristic_eigenvalues_two_state():
    prop = MomentumPropagator(
        coin=build_cyclic_coin([4 * math.pi / 3, 2 * math.pi / 3]),
        shifts=build_shift_table([(-1, 1)]),
    )
    values = characteristic_eigenvalues(prop, [0.9])
    assert spectrum_distance(values, np.array([1.0, -1.0])) <= 1e-12


def test_characteristic_eigenvalues_match_numeric_eigensolver():
    prop = three_state_prop()
    closed = characteristic_eigenvalues(prop, [1.1])
    numeric = np.linalg.eigvals(evaluate_propagator(prop, [1.1]))
    assert spectrum_distance(closed, numeric) <= 1e-8


def test_characteristic_eigenvalues_require_cyclic_coin():
    with pytest.raises(ConstraintError):
        characteristic_eigenvalues(hadamard_prop(), [0.3])


def test_spectrum_distance_robust_at_argument_cut():
    a = roots_of_unity(2)
    nudged = np.array([1.0, np.exp(1j * (-math.pi + 1e-12))])
    assert spectrum_distance(a, nudged) <= 1e-10
    # Past the canonical-order margin, -1 sorts first; the alignment absorbs it.
    rotated = roots_of_unity(4) * np.exp(1e-9j)
    assert spectrum_distance(roots_of_unity(4), rotated) <= 1e-8


def test_canonical_order_puts_minus_one_last_on_either_side_of_the_cut():
    for im in (1e-15, -1e-15):
        values = canonical_order([complex(-1.0, im), 1.0, 1j, -1j])
        np.testing.assert_array_equal(values, [-1j, 1.0, 1j, complex(-1.0, im)])
    assert roots_of_unity(4)[-1] == np.exp(1j * math.pi)


def test_sweep_matches_per_sample_eigensolver_in_canonical_order():
    # n = 16 puts -1 in every spectrum, where rounding picks the side of the cut.
    rng = np.random.default_rng(16)
    prop = MomentumPropagator(
        coin=build_cyclic_coin(random_cyclic_phases(16, rng)),
        shifts=build_shift_table([random_zero_sum_row(16, rng) for _ in range(3)]),
    )
    report = spectrum_sweep(prop, 60, seed=7)
    assert report.k_independent and report.matches_roots_of_unity
    for k, values in zip(report.k_samples, report.eigenvalue_sets):
        single = canonical_order(np.linalg.eigvals(evaluate_propagator(prop, k)))
        assert np.abs(np.array(values) - single).max() <= 1e-12


def per_sample_flags(prop, samples, seed):
    """Sweep flags from one eigensolve and one spectrum_distance call per sample."""
    rng = np.random.default_rng(seed)
    points = momentum_samples(prop.d, max(0, samples - (prop.d + 1)), rng)[:samples]
    spectra = [np.linalg.eigvals(evaluate_propagator(prop, k)) for k in points]
    roots = roots_of_unity(prop.n)
    return (
        all(spectrum_distance(spectra[0], s) <= TOL_MAT for s in spectra[1:]),
        all(spectrum_distance(roots, s) <= TOL_MAT for s in spectra),
    )


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(2, 8),
    samples=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_sweep_flags_match_per_sample_route(d, n, samples, seed):
    rng = np.random.default_rng(seed)
    cyclic = MomentumPropagator(
        coin=build_cyclic_coin(random_cyclic_phases(n, rng)),
        shifts=build_shift_table([random_zero_sum_row(n, rng) for _ in range(d)]),
    )
    for prop in (cyclic, hadamard_prop()):
        report = spectrum_sweep(prop, samples, seed=seed)
        flags = (report.k_independent, report.matches_roots_of_unity)
        assert flags == per_sample_flags(prop, samples, seed)


def test_spectrum_sweep_flat_for_revival_walk():
    report = spectrum_sweep(three_state_prop(), 10)
    assert report.k_independent
    assert report.matches_roots_of_unity
    assert len(report.k_samples) == 10
    assert all(
        abs(abs(v) - 1.0) <= 1e-10 for s in report.eigenvalue_sets for v in s
    )


def test_spectrum_sweep_dispersive_for_rotation_coin():
    report = spectrum_sweep(hadamard_prop(), 10)
    assert not report.k_independent
    assert not report.matches_roots_of_unity


def test_spectrum_sweep_constant_when_momentum_never_enters():
    with pytest.warns(UserWarning):
        shifts = build_shift_table([(0, 0)])
    prop = MomentumPropagator(coin=build_cyclic_coin([0.0, 0.0]), shifts=shifts)
    report = spectrum_sweep(prop, 5)
    assert report.k_independent
    assert report.matches_roots_of_unity


def test_spectrum_sweep_needs_two_samples():
    with pytest.raises(ValueError):
        spectrum_sweep(three_state_prop(), 1)


def test_spectrum_sweep_deterministic_given_seed():
    a = spectrum_sweep(three_state_prop(), 8, seed=123)
    b = spectrum_sweep(three_state_prop(), 8, seed=123)
    assert a.k_samples == b.k_samples
    assert a.eigenvalue_sets == b.eigenvalue_sets


# -- dense truncated-lattice oracle -------------------------------------------


def two_state_instance():
    return WalkInstance(
        coin=build_cyclic_coin([4 * math.pi / 3, 2 * math.pi / 3]),
        shifts=build_shift_table([(-1, 1)]),
        initial=WalkState.from_entries(
            1, 2, [((1,), 0, 1 / math.sqrt(2)), ((1,), 1, 1 / math.sqrt(2))]
        ),
    )


def plane_instance():
    a3 = 1 / math.sqrt(3)
    return WalkInstance(
        coin=build_cyclic_coin([0.0, 2 * math.pi / 3, 4 * math.pi / 3]),
        shifts=build_shift_table([(1, 1, -2), (-1, -1, 2)]),
        initial=WalkState.from_entries(
            2, 3, [((0, 0), 0, a3), ((0, 0), 1, a3), ((0, 0), 2, a3)]
        ),
    )


def test_oracle_zero_steps_embeds_initial():
    instance = two_state_instance()
    assert l2_distance(dense_oracle_evolve(instance, 0, (5,)), instance.initial) == 0.0


def test_oracle_matches_engine_on_two_state_walk():
    instance = two_state_instance()
    for t in (1, 2, 3):
        dense = dense_oracle_evolve(instance, t, (5,))
        assert l2_distance(dense, evolve(instance, t)) <= 1e-12


def test_oracle_plane_walk_revives():
    instance = plane_instance()
    dense = dense_oracle_evolve(instance, 3, (8, 8))
    assert l2_distance(dense, instance.initial) <= 1e-12


def test_oracle_refuses_small_window_with_required_sizes():
    instance = two_state_instance()
    with pytest.raises(WindowTooSmallError) as info:
        dense_oracle_evolve(instance, 3, (3,))
    assert info.value.required == (4,)
    # exactly the reported minimum works
    dense_oracle_evolve(instance, 3, info.value.required)


def test_oracle_window_shape_checked():
    with pytest.raises(DimensionMismatchError):
        dense_oracle_evolve(two_state_instance(), 1, (5, 5))
    with pytest.raises(DimensionMismatchError):
        dense_oracle_evolve(two_state_instance(), 1, (-1,))


def test_oracle_rejects_negative_steps():
    with pytest.raises(ValueError):
        dense_oracle_evolve(two_state_instance(), -1, (5,))


def test_oracle_golden_walk_3_at_nine_steps():
    # As a dense N x N matrix this window took 270 MB.
    instance = build_instance(golden_config(3))
    dense = dense_oracle_evolve(instance, 9, (18, 18))
    assert l2_distance(dense, evolve(instance, 9)) <= 1e-12


def test_oracle_matches_engine_on_hadamard_walk():
    # Every row of a rotation coin has two nonzeros, so rows sum several triplets.
    a2 = 1 / math.sqrt(2)
    instance = WalkInstance(
        coin=build_general_coin_1d(math.pi / 4, 0.0, 0.0),
        shifts=conventional_two_state_shifts(),
        initial=WalkState.from_entries(1, 2, [((0,), 0, a2), ((0,), 1, 1j * a2)]),
    )
    for t in (1, 5, 12):
        dense = dense_oracle_evolve(instance, t, (t,))
        assert len(dense) == t + 1
        assert l2_distance(dense, evolve(instance, t)) <= 1e-12


def test_oracle_refuses_windows_over_its_byte_budget_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(OracleTooLargeError) as info:
            dense_oracle_evolve(plane_instance(), 3, (10**6, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    error = info.value
    assert error.requested > error.budget
    assert str(error.requested) in str(error) and str(error.budget) in str(error)
    assert peak < 100_000


@pytest.mark.parametrize("samples", [ORACLE_BUDGET_BYTES // (9 * 16) + 1, 10**12])
def test_sweep_refuses_stacks_over_the_byte_budget_before_allocating(samples):
    prop = three_state_prop()
    tracemalloc.start()
    try:
        with pytest.raises(OracleTooLargeError) as info:
            spectrum_sweep(prop, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.budget == ORACLE_BUDGET_BYTES
    assert info.value.requested == samples * 3 * 3 * 16
    assert f"{samples} samples" in str(info.value)
    assert peak < 100_000


@pytest.mark.parametrize("case", range(5))
def test_oracle_matches_engine_on_random_instances(case):
    rng = np.random.default_rng(900 + case)
    d = int(rng.integers(1, 3))
    n = int(rng.integers(2, 5))
    t = int(rng.integers(1, 7)) if d == 2 else int(rng.integers(1, 11))
    bound = 1 if d == 2 else 2
    initial = random_sparse_state(d, n, rng, radius=1, sites=2)
    instance = random_cyclic_instance(d, n, rng, shift_bound=bound, initial=initial)
    window = tuple(1 + bound * t for _ in range(d))
    dense = dense_oracle_evolve(instance, t, window)
    assert l2_distance(dense, evolve(instance, t)) <= 1e-12
