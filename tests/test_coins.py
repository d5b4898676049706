import cmath
import math

import numpy as np
import pytest

from revivalwalk import (
    CoinKind,
    ConstraintError,
    DimensionMismatchError,
    PhaseSumError,
    build_custom_coin,
    build_cyclic_coin,
    build_general_coin_1d,
    build_partial_cycle_coin,
    matrix_order,
    random_cyclic_phases,
)
from revivalwalk.coins import complete_phases, phase_sum_residual, wrap_phase

TAU = 2 * math.pi


# -- general two-state coin --------------------------------------------------


def test_general_coin_hadamard_form():
    coin = build_general_coin_1d(math.pi / 4, 0.0, 0.0)
    s = 1.0 / math.sqrt(2.0)
    expected = np.array([[s, s], [s, -s]])
    np.testing.assert_allclose(coin.matrix, expected, atol=1e-15)
    assert coin.kind is CoinKind.GENERAL_1D


def test_general_coin_theta_zero():
    coin = build_general_coin_1d(0.0, 0.0, 0.0)
    np.testing.assert_array_equal(coin.matrix, np.array([[1, 0], [0, -1]], dtype=complex))


def test_general_coin_is_unitary_by_direct_product():
    coin = build_general_coin_1d(math.pi / 3, math.pi / 2, math.pi / 2)
    gram = coin.matrix @ coin.matrix.conj().T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-14)


@pytest.mark.parametrize(
    "theta,phi1,phi2",
    [(-0.1, 0.0, 0.0), (TAU, 0.0, 0.0), (1.0, math.pi, 0.0), (1.0, 0.0, -0.01)],
)
def test_general_coin_range_errors(theta, phi1, phi2):
    with pytest.raises(ConstraintError):
        build_general_coin_1d(theta, phi1, phi2)


# -- phase bookkeeping -------------------------------------------------------


def test_wrap_phase():
    assert math.isclose(wrap_phase(4 * math.pi / 3), -2 * math.pi / 3, abs_tol=1e-15)
    assert wrap_phase(-math.pi) == math.pi
    assert wrap_phase(math.pi) == math.pi
    assert wrap_phase(0.0) == 0.0


def test_complete_phases_negation():
    completed = complete_phases([2 * math.pi / 3])
    assert completed[:1] == [2 * math.pi / 3]
    assert math.isclose(completed[1], -2 * math.pi / 3, abs_tol=1e-15)


def test_complete_phases_zeros():
    assert complete_phases([0.0, 0.0]) == [0.0, 0.0, 0.0]


def test_complete_phases_residual_vanishes():
    completed = complete_phases([math.pi / 5, math.pi / 7, math.pi / 3])
    assert math.isclose(completed[3], -71 * math.pi / 105, abs_tol=1e-12)
    assert abs(phase_sum_residual(completed)) <= 1e-12
    assert -math.pi < completed[3] <= math.pi


def test_complete_phases_wraps_large_partial_sums():
    completed = complete_phases([3.0, 3.0])
    assert abs(phase_sum_residual(completed)) <= 1e-12
    assert -math.pi < completed[2] <= math.pi


def test_random_cyclic_phases_are_valid():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        phases = random_cyclic_phases(n, rng)
        assert len(phases) == n
        assert abs(phase_sum_residual(phases)) <= 1e-12


# -- cyclic coins ------------------------------------------------------------


def test_cyclic_coin_two_state_golden():
    coin = build_cyclic_coin([4 * math.pi / 3, 2 * math.pi / 3])
    assert coin.kind is CoinKind.CYCLIC
    assert cmath.isclose(coin.matrix[0, 1], cmath.exp(4j * math.pi / 3), abs_tol=1e-14)
    assert cmath.isclose(coin.matrix[1, 0], cmath.exp(2j * math.pi / 3), abs_tol=1e-14)
    assert coin.matrix[0, 0] == 0 and coin.matrix[1, 1] == 0
    # inputs outside (-pi, pi] wrap instead of being rejected
    assert math.isclose(coin.phases[0], -2 * math.pi / 3, abs_tol=1e-15)


def test_cyclic_coin_three_state_golden():
    coin = build_cyclic_coin([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    assert coin.matrix[0, 2] == 1.0 + 0j
    assert cmath.isclose(coin.matrix[1, 0], cmath.exp(2j * math.pi / 3), abs_tol=1e-14)
    assert cmath.isclose(coin.matrix[2, 1], cmath.exp(4j * math.pi / 3), abs_tol=1e-14)


def test_cyclic_coin_swap_squares_to_identity():
    coin = build_cyclic_coin([0.0, 0.0])
    np.testing.assert_array_equal(coin.matrix, np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_array_equal(coin.matrix @ coin.matrix, np.eye(2))


def test_cyclic_coin_phase_sum_violation_reports_residual():
    with pytest.raises(PhaseSumError) as info:
        build_cyclic_coin([0.1, 0.2, 0.3])
    assert math.isclose(info.value.residual, 0.6, abs_tol=1e-12)


def test_cyclic_coin_needs_two_states():
    with pytest.raises(DimensionMismatchError):
        build_cyclic_coin([0.0])


@pytest.mark.parametrize("n", range(2, 9))
def test_cyclic_coin_pattern_and_unitarity(n):
    rng = np.random.default_rng(40 + n)
    coin = build_cyclic_coin(random_cyclic_phases(n, rng))
    m = coin.matrix
    for i in range(n):
        for j in range(n):
            on_cycle = (i == 0 and j == n - 1) or (i == j + 1)
            if on_cycle:
                assert math.isclose(abs(m[i, j]), 1.0, abs_tol=1e-15)
            else:
                assert m[i, j] == 0
    gram = m @ m.conj().T
    assert np.abs(gram - np.eye(n)).max() <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_cyclic_coin_powers_are_phased_cyclic_shifts(n):
    # W moves slot j to slot j + 1, so W^m moves it m slots on, weighted by
    # the product of the m hop entries it passes through.
    rng = np.random.default_rng(80 + n)
    w = build_cyclic_coin(random_cyclic_phases(n, rng)).matrix
    power = np.eye(n, dtype=complex)
    for m in range(1, n + 1):
        power = w @ power
        for j in range(n):
            hops = [w[(j + k + 1) % n, (j + k) % n] for k in range(m)]
            for i in range(n):
                if i == (j + m) % n:
                    assert abs(power[i, j] - np.prod(hops)) <= 1e-12
                else:
                    assert power[i, j] == 0
    np.testing.assert_allclose(power, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_cyclic_coin_order_is_exactly_n(n):
    rng = np.random.default_rng(100 + n)
    coin = build_cyclic_coin(random_cyclic_phases(n, rng))
    assert matrix_order(coin.matrix, 2 * n) == n


# -- partial-cycle coins -----------------------------------------------------


def test_partial_cycle_block_swap():
    coin = build_partial_cycle_coin(4, 2, [math.pi, -math.pi])
    assert coin.kind is CoinKind.PARTIAL_CYCLE
    assert coin.cycle_length == 2
    # fixed slots form the exact identity
    np.testing.assert_array_equal(coin.matrix[2:, 2:], np.eye(2))
    assert not coin.matrix[:2, 2:].any()
    assert not coin.matrix[2:, :2].any()
    np.testing.assert_allclose(coin.matrix @ coin.matrix, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n,r", [(3, 2), (5, 3), (6, 4)])
def test_partial_cycle_powers_keep_the_fixed_block_exact(n, r):
    rng = np.random.default_rng(10 * n + r)
    w = build_partial_cycle_coin(n, r, random_cyclic_phases(r, rng)).matrix
    power = np.eye(n, dtype=complex)
    for _ in range(2 * r + 1):
        power = w @ power
        np.testing.assert_array_equal(power[r:, r:], np.eye(n - r))
        assert not power[:r, r:].any()
        assert not power[r:, :r].any()


def test_partial_cycle_degenerates_to_cyclic_when_r_equals_n():
    phases = complete_phases([0.3, -0.5])
    full = build_partial_cycle_coin(3, 3, phases)
    cyclic = build_cyclic_coin(phases)
    np.testing.assert_array_equal(full.matrix, cyclic.matrix)


def test_partial_cycle_cube_is_identity_but_no_lower_power():
    coin = build_partial_cycle_coin(5, 3, [2 * math.pi / 3] * 3)
    w = coin.matrix
    assert np.abs(w - np.eye(5)).max() > 0.5
    assert np.abs(w @ w - np.eye(5)).max() > 0.5
    np.testing.assert_allclose(w @ w @ w, np.eye(5), atol=1e-12)
    assert matrix_order(w, 10) == 3


def test_partial_cycle_input_validation():
    with pytest.raises(DimensionMismatchError):
        build_partial_cycle_coin(4, 1, [0.0])
    with pytest.raises(DimensionMismatchError):
        build_partial_cycle_coin(4, 5, [0.0] * 5)
    with pytest.raises(DimensionMismatchError):
        build_partial_cycle_coin(4, 2, [0.0, 0.0, 0.0])
    with pytest.raises(PhaseSumError):
        build_partial_cycle_coin(4, 2, [0.4, 0.4])


# -- custom coins ------------------------------------------------------------


def test_custom_coin_accepts_any_unitary():
    phase = cmath.exp(0.37j)
    coin = build_custom_coin(phase * np.array([[0, 1], [1, 0]]))
    assert coin.kind is CoinKind.CUSTOM
    assert coin.phases is None


def test_custom_coin_rejects_non_unitary():
    from revivalwalk import NonUnitaryError

    with pytest.raises(NonUnitaryError):
        build_custom_coin(np.array([[1, 1], [0, 1]]))
