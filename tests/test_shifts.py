import math

import numpy as np
import pytest

from helpers import random_sparse_state
from revivalwalk import (
    CoordinateOverflowError,
    DimensionMismatchError,
    WalkInstance,
    WalkState,
    ZeroSumError,
    apply_shift,
    build_general_coin_1d,
    build_shift_table,
    conventional_two_state_shifts,
    l2_distance,
    probability_distribution,
    step,
)
from revivalwalk.shifts import usual_shift_choice


def test_build_valid_line_table():
    table = build_shift_table([(-5, 3, 2)])
    assert table.d == 1 and table.n == 3
    assert table.displacements == ((-5, 3, 2),)
    assert table.inert_dimensions == ()


def test_build_valid_plane_table():
    table = build_shift_table([(1, 1, -2), (-1, -1, 2)])
    assert table.d == 2 and table.n == 3


def test_zero_sum_violation_names_dimension_and_residual():
    # A single mover can never sum to zero, so it fails the same check.
    for rows, dimension in (([(0, 0), (1, 2)], 1), ([(0, 3, 0)], 0)):
        with pytest.raises(ZeroSumError) as info:
            build_shift_table(rows)
        assert info.value.dimension == dimension
        assert info.value.residual == 3


def test_ragged_and_degenerate_grids_rejected():
    with pytest.raises(DimensionMismatchError):
        build_shift_table([(1, -1), (1, -1, 0)])
    with pytest.raises(DimensionMismatchError):
        build_shift_table([])
    with pytest.raises(DimensionMismatchError):
        build_shift_table([(0,)])


def test_inert_dimension_flagged_with_warning():
    with pytest.warns(UserWarning, match="inert"):
        table = build_shift_table([(0, 0), (-1, 1)])
    assert table.inert_dimensions == (0,)


def test_usual_shift_choice_small_cases():
    assert usual_shift_choice(2) == [-1, 1]
    assert usual_shift_choice(3) == [-1, 0, 1]
    assert usual_shift_choice(4) == [-2, -1, 1, 2]
    assert usual_shift_choice(5) == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize("n", range(2, 10))
def test_usual_shift_choice_properties(n):
    values = usual_shift_choice(n)
    assert len(values) == n
    assert sum(values) == 0
    assert values == sorted(values)
    assert max(abs(v) for v in values) <= math.ceil(n / 2)


def test_usual_shift_choice_rejects_small_n():
    with pytest.raises(DimensionMismatchError):
        usual_shift_choice(1)


def test_conventional_two_state_shifts():
    table = conventional_two_state_shifts()
    assert table.displacements == ((-1, 1),)
    assert sum(table.displacements[0]) == 0


def test_hadamard_step_spreads_to_neighbours():
    # From a walker parked on slot 0 at the origin, one conventional step
    # splits the probability evenly between x = -1 and x = +1.
    instance = WalkInstance(
        coin=build_general_coin_1d(math.pi / 4, 0.0, 0.0),
        shifts=conventional_two_state_shifts(),
        initial=WalkState.localized(1, 2, (0,), 0),
    )
    dist = probability_distribution(step(instance.initial, instance))
    assert set(dist) == {(-1,), (1,)}
    assert math.isclose(dist[(-1,)], 0.5, abs_tol=1e-12)
    assert math.isclose(dist[(1,)], 0.5, abs_tol=1e-12)


def test_apply_shift_moves_each_slot_by_its_column():
    # Slot 0 carries displacement -5, so amplitude at x = 1 lands at x = -4.
    table = build_shift_table([(-5, 3, 2)])
    state = WalkState.localized(1, 3, (1,), 0)
    moved = apply_shift(state, table)
    assert moved.positions() == [(-4,)]
    assert moved.amplitude((-4,), 0) == 1.0 + 0j


def test_apply_zero_table_is_identity():
    with pytest.warns(UserWarning):
        table = build_shift_table([(0, 0)])
    state = WalkState.from_entries(1, 2, [((0,), 0, 0.6), ((2,), 1, 0.8)])
    assert l2_distance(apply_shift(state, table), state) == 0.0


def test_zero_columns_leave_their_slots_in_place():
    table = build_shift_table([(1, -1, 0), (-2, 2, 0)])
    state = WalkState.from_entries(2, 3, [((0, 0), 0, 0.6), ((4, -1), 2, 0.8j)])
    moved = apply_shift(state, table)
    assert moved.amplitude((4, -1), 2) == 0.8j
    assert moved.amplitude((1, -2), 0) == 0.6


@pytest.mark.parametrize(
    "rows",
    [[(2, -3, 1)], [(2, -3, 1), (-1, 0, 1)], [(1, 0, -1), (0, 4, -4), (-2, 1, 1)]],
    ids=["line", "plane", "cube"],
)
def test_shift_then_negated_shift_round_trips(rows):
    rng = np.random.default_rng(17)
    table = build_shift_table(rows)
    state = random_sparse_state(table.d, 3, rng, sites=4)
    inverse = build_shift_table([[-a for a in row] for row in table.displacements])
    back = apply_shift(apply_shift(state, table), inverse)
    assert l2_distance(back, state) == 0.0


def test_apply_shift_preserves_amplitude_multiset_and_norm():
    rng = np.random.default_rng(23)
    table = build_shift_table([(1, -1, 0)])
    state = random_sparse_state(1, 3, rng, sites=3)
    moved = apply_shift(state, table)

    def multiset(s):
        return sorted(
            (complex(v) for vec in dict(s.items()).values() for v in vec if v != 0),
            key=lambda z: (z.real, z.imag),
        )

    assert multiset(moved) == multiset(state)
    assert math.isclose(moved.norm(), state.norm(), rel_tol=1e-12)


def test_coordinate_overflow_detected():
    table = build_shift_table([(1, -1)])
    state = WalkState.localized(1, 2, (2**63 - 1,), 0)
    with pytest.raises(CoordinateOverflowError):
        apply_shift(state, table)


def test_edge_site_moving_inward_steps_without_error():
    table = build_shift_table([(1, -1)])
    moved = apply_shift(WalkState.localized(1, 2, (2**63 - 1,), 1), table)
    assert moved.positions() == [(2**63 - 2,)]
    assert moved.amplitude((2**63 - 2,), 1) == 1.0


def test_moving_past_the_negative_limit_raises_instead_of_reaching_int64_min():
    # -(2^63 - 1) - 1 = -2^63 still fits in int64, but lies outside the range.
    table = build_shift_table([(-1, 1)])
    with pytest.raises(CoordinateOverflowError) as info:
        apply_shift(WalkState.localized(1, 2, (-(2**63 - 1),), 0), table)
    assert str(info.value) == (
        f"shift moved position {(-(2**63 - 1),)} outside the supported coordinate range "
        f"(slot 0, displacement (-1,))"
    )


def test_overflow_in_three_dimensions_names_the_first_offending_site_and_slot():
    table = build_shift_table([(1, -1), (-1, 1), (2, -2)])
    edge = (5, -(2**63 - 1), 0)
    inward = WalkState.from_entries(3, 2, [((0, 0, 0), 0, 0.6), (edge, 1, 0.8)])
    moved = apply_shift(inward, table)
    assert moved.positions() == [(1, -1, 2), (4, -(2**63 - 2), -2)]
    later = (7, -(2**63 - 1), 0)
    outward = WalkState.from_entries(
        3, 2, [(later, 0, 1.0), ((0, 0, 0), 1, 1.0), (edge, 0, 1.0), (edge, 1, 1.0)],
        normalize=True)
    with pytest.raises(CoordinateOverflowError) as info:
        apply_shift(outward, table)
    assert str(info.value) == (
        f"shift moved position {edge} outside the supported coordinate range "
        f"(slot 0, displacement (1, -1, 2))"
    )


@pytest.mark.parametrize("coordinate", [2**63, -(2**63), 2**70])
def test_states_refuse_coordinates_outside_the_range(coordinate):
    with pytest.raises(CoordinateOverflowError, match="outside the supported coordinate range"):
        WalkState.localized(2, 2, (0, coordinate), 0)


def test_apply_shift_dimension_checks():
    table = build_shift_table([(1, -1)])
    with pytest.raises(DimensionMismatchError):
        apply_shift(WalkState.localized(2, 2, (0, 0), 0), table)
    with pytest.raises(DimensionMismatchError):
        apply_shift(WalkState.localized(1, 3, (0,), 0), table)
