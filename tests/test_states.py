import cmath
import math

import numpy as np
import pytest

from helpers import random_sparse_state, random_unitary
from revivalwalk import (
    DimensionMismatchError,
    NormalizationError,
    WalkState,
    inner_product,
    l2_distance,
)
from revivalwalk.states import shared_rows

A2 = 1.0 / math.sqrt(2.0)
W = cmath.exp(2j * math.pi / 3)


def golden_two_state_t0():
    return WalkState.from_entries(1, 2, [((1,), 0, A2), ((1,), 1, A2)])


def golden_two_state_t1():
    return WalkState.from_entries(
        1, 2, [((0,), 0, A2 * W.conjugate()), ((2,), 1, A2 * W)]
    )


def test_localized_state_has_unit_norm():
    psi = WalkState.localized(2, 3, (0, 0), 1)
    assert psi.norm() == 1.0
    assert inner_product(psi, psi) == 1.0 + 0j


def test_from_entries_accumulates_duplicates():
    psi = WalkState.from_entries(1, 2, [((0,), 0, 0.5), ((0,), 0, 0.5)])
    assert psi.amplitude((0,), 0) == 1.0 + 0j


def test_from_entries_rejects_non_unit_without_normalize():
    with pytest.raises(NormalizationError):
        WalkState.from_entries(1, 2, [((0,), 0, 0.5)])


def test_from_entries_normalize_rescales():
    psi = WalkState.from_entries(1, 2, [((0,), 0, 3.0), ((1,), 1, 4.0)], normalize=True)
    assert math.isclose(psi.norm(), 1.0, abs_tol=1e-15)
    assert math.isclose(abs(psi.amplitude((0,), 0)), 0.6, abs_tol=1e-15)


def test_normalize_rejects_zero_state():
    with pytest.raises(NormalizationError):
        WalkState.from_entries(1, 2, [((0,), 0, 0.0)], normalize=True)


def test_non_finite_amplitudes_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        WalkState.from_entries(1, 2, [((0,), 0, complex(math.nan, 0.0))], normalize=True)


@pytest.mark.parametrize("imag", [math.inf, -math.inf, math.nan])
def test_non_finite_imaginary_parts_rejected(imag):
    with pytest.raises(ValueError, match="non-finite"):
        WalkState.from_entries(1, 2, [((0,), 0, 1.0), ((3,), 1, complex(0.0, imag))],
                               normalize=True)


def test_exact_zero_vectors_are_pruned():
    psi = WalkState.from_entries(1, 2, [((0,), 0, 1.0), ((5,), 1, 0.0)])
    assert psi.positions() == [(0,)]
    assert psi.amplitude((5,), 0) == 0j


def test_entries_that_cancel_are_pruned():
    entries = [((0,), 0, 1.0), ((5,), 1, 0.25 - 0.5j), ((5,), 1, -0.25 + 0.5j)]
    for normalize in (False, True):
        psi = WalkState.from_entries(1, 2, entries, normalize=normalize)
        assert psi.positions() == [(0,)]
        assert len(psi) == 1


def test_vectors_that_underflow_when_rescaled_are_pruned():
    psi = WalkState.from_entries(1, 2, [((0,), 0, 1e150), ((1,), 1, 1e-175)], normalize=True)
    assert psi.positions() == [(0,)]
    assert psi.norm() == 1.0


def test_tiny_amplitudes_survive_by_default():
    psi = WalkState.from_entries(1, 2, [((0,), 0, 1.0), ((0,), 1, 1e-300)])
    assert psi.amplitude((0,), 1) == 1e-300


def test_amplitude_vectors_are_frozen_and_copied():
    position = [0]
    entries = [[position, 0, 1.0]]
    psi = WalkState.from_entries(1, 2, entries)
    position[0], entries[0][2] = 7, 5.0
    assert psi.positions() == [(0,)]
    assert psi.amplitude((0,), 0) == 1.0
    [(_, vec)] = psi.items()
    with pytest.raises(ValueError):
        vec[0] = 2.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mapping_form_sorts_rows_into_the_arrays(d):
    psi = random_sparse_state(d, 3, np.random.default_rng(d), radius=4, sites=6)
    rows = dict(reversed(psi.items()))
    built = WalkState(d, 3, rows)
    assert built.coords.dtype == np.int64 and built.amps.dtype == np.complex128
    assert np.array_equal(built.coords, psi.coords) and np.array_equal(built.amps, psi.amps)
    assert not built.coords.flags.writeable and not built.amps.flags.writeable
    one = WalkState(d, 3, {(0,) * d: [0j, 1.0, 0j]})
    assert one.positions() == [(0,) * d] and one.amplitude((0,) * d, 1) == 1.0


def test_one_join_gives_the_same_overlap_and_distance():
    rng = np.random.default_rng(5)
    a, b = (random_sparse_state(2, 3, rng, sites=8) for _ in range(2))
    b = WalkState.from_entries(2, 3, [(p, j, v[j]) for p, v in a.items()[:4] + b.items()
                                      for j in range(3)], normalize=True)
    shared = shared_rows(a, b)
    assert len(shared[0]) >= 4
    assert inner_product(a, b, shared) == inner_product(a, b)
    assert l2_distance(a, b, shared) == l2_distance(a, b)


def test_coin_index_bounds_checked():
    psi = WalkState.localized(1, 2, (0,), 0)
    with pytest.raises(DimensionMismatchError):
        psi.amplitude((0,), -1)
    with pytest.raises(DimensionMismatchError):
        psi.amplitude((0,), 2)


def test_position_length_must_match_dimension():
    with pytest.raises(DimensionMismatchError):
        WalkState.from_entries(2, 2, [((0,), 0, 1.0)])


@pytest.mark.parametrize("d,n,position", [(0, 2, ()), (-1, 2, ()), (1, 0, (0,)), (1, -1, (0,))],
                         ids=["d=0", "d=-1", "n=0", "n=-1"])
def test_dimensions_must_be_at_least_one(d, n, position):
    with pytest.raises(DimensionMismatchError, match="must be >= 1"):
        WalkState.from_entries(d, n, [(position, 0, 1.0)])


def test_inner_product_disjoint_supports_is_exact_zero():
    # One step of the two-state golden walk moves all amplitude off x = 1,
    # so the t=0 / t=1 overlap vanishes identically.
    assert inner_product(golden_two_state_t0(), golden_two_state_t1()) == 0j


def test_inner_product_with_itself_is_one():
    psi = golden_two_state_t0()
    assert abs(inner_product(psi, psi) - 1.0) <= 1e-12


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(11)
    a = random_sparse_state(2, 3, rng)
    b = random_sparse_state(2, 3, rng)
    forward = inner_product(a, b)
    backward = inner_product(b, a)
    assert cmath.isclose(forward, backward.conjugate(), abs_tol=1e-15)


def test_inner_product_is_squared_norm_on_diagonal():
    rng = np.random.default_rng(12)
    a = random_sparse_state(1, 4, rng)
    value = inner_product(a, a)
    assert abs(value.imag) <= 1e-15
    assert math.isclose(value.real, a.norm() ** 2, abs_tol=1e-12)


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(WalkState.localized(1, 2, (0,), 0), WalkState.localized(1, 3, (0,), 0))
    with pytest.raises(DimensionMismatchError):
        inner_product(WalkState.localized(1, 2, (0,), 0), WalkState.localized(2, 2, (0, 0), 0))


def test_l2_distance_over_disjoint_supports():
    a = WalkState.localized(1, 2, (0,), 0)
    b = WalkState.localized(1, 2, (1,), 0)
    assert math.isclose(l2_distance(a, b), math.sqrt(2.0), abs_tol=1e-15)
    assert l2_distance(a, a) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_unitary_coin_mixing_preserves_norm(n):
    rng = np.random.default_rng(n + 100)
    u = random_unitary(n, rng)
    psi = random_sparse_state(1, n, rng, sites=4)
    mixed = WalkState(psi.coords, psi.amps @ u.T)
    assert abs(mixed.norm() - 1.0) <= 1e-12
