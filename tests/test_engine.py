import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    fixed_slot_part,
    random_cyclic_instance,
    random_sparse_state,
    random_unitary,
    random_zero_sum_row,
)
from revivalwalk import (
    DimensionMismatchError,
    NormalizationError,
    RevivalMode,
    WalkInstance,
    WalkState,
    apply_shift,
    build_custom_coin,
    build_cyclic_coin,
    build_partial_cycle_coin,
    build_shift_table,
    dense_oracle_evolve,
    detect_revival,
    evolve,
    inner_product,
    l2_distance,
    probability_distribution,
    random_cyclic_phases,
    step,
    trajectory,
)
from revivalwalk.shifts import usual_shift_choice

A2 = 1.0 / math.sqrt(2.0)
A3 = 1.0 / math.sqrt(3.0)
W = cmath.exp(2j * math.pi / 3)
WB = W.conjugate()


def two_state_instance():
    return WalkInstance(
        coin=build_cyclic_coin([4 * math.pi / 3, 2 * math.pi / 3]),
        shifts=build_shift_table([(-1, 1)]),
        initial=WalkState.from_entries(1, 2, [((1,), 0, A2), ((1,), 1, A2)]),
    )


def three_state_instance():
    return WalkInstance(
        coin=build_cyclic_coin([0.0, 2 * math.pi / 3, 4 * math.pi / 3]),
        shifts=build_shift_table([(-5, 3, 2)]),
        initial=WalkState.from_entries(
            1, 3, [((3,), 0, A3), ((2,), 1, A3), ((1,), 2, A3)]
        ),
    )


def plane_instance():
    return WalkInstance(
        coin=build_cyclic_coin([0.0, 2 * math.pi / 3, 4 * math.pi / 3]),
        shifts=build_shift_table([(1, 1, -2), (-1, -1, 2)]),
        initial=WalkState.from_entries(
            2, 3, [((0, 0), 0, A3), ((0, 0), 1, A3), ((0, 0), 2, A3)]
        ),
    )


def assert_amplitudes(state, expected, tol=1e-12):
    """expected: list of (position, slot, amplitude) covering the support."""
    listed = set()
    for pos, slot, amp in expected:
        listed.add((pos, slot))
        assert abs(state.amplitude(pos, slot) - amp) <= tol, (pos, slot)
    for pos, vec in state.items():
        for slot in range(state.n):
            if (pos, slot) not in listed:
                assert abs(vec[slot]) <= tol


def test_step_two_state_first_row():
    instance = two_state_instance()
    after = step(instance.initial, instance)
    assert_amplitudes(after, [((0,), 0, A2 * WB), ((2,), 1, A2 * W)])


def test_step_three_state_second_row():
    instance = three_state_instance()
    t1 = WalkState.from_entries(
        1, 3, [((-4,), 0, A3), ((6,), 1, A3 * W), ((4,), 2, A3 * WB)]
    )
    after = step(t1, instance)
    assert_amplitudes(after, [((-1,), 0, A3 * WB), ((-1,), 1, A3 * W), ((8,), 2, A3)])


def test_step_plane_first_row():
    instance = plane_instance()
    after = step(instance.initial, instance)
    assert_amplitudes(
        after,
        [((1, -1), 0, A3), ((1, -1), 1, A3 * W), ((-2, 2), 2, A3 * WB)],
    )


def test_step_dimension_check():
    with pytest.raises(DimensionMismatchError):
        step(WalkState.localized(1, 3, (0,), 0), two_state_instance())


def test_evolve_zero_steps_returns_initial():
    instance = two_state_instance()
    assert l2_distance(evolve(instance, 0), instance.initial) == 0.0


def test_evolve_negative_steps_rejected():
    with pytest.raises(ValueError):
        evolve(two_state_instance(), -1)


def test_evolve_three_state_full_period():
    instance = three_state_instance()
    assert l2_distance(evolve(instance, 3), instance.initial) <= 1e-12


def test_evolve_two_state_two_periods():
    instance = two_state_instance()
    assert l2_distance(evolve(instance, 4), instance.initial) <= 1e-12


def test_revived_state_has_unit_overlap_with_initial():
    instance = two_state_instance()
    overlap = inner_product(instance.initial, evolve(instance, 2))
    assert abs(overlap - 1.0) <= 1e-12


def test_four_state_walk_revives_in_four_steps():
    rng = np.random.default_rng(44)
    instance = WalkInstance(
        coin=build_cyclic_coin(random_cyclic_phases(4, rng)),
        shifts=build_shift_table([usual_shift_choice(4)]),
        initial=WalkState.localized(1, 4, (0,), 0),
    )
    assert detect_revival(instance, 8).period == 4


def test_revival_universality_for_arbitrary_finite_support():
    # Any normalized finite-support initial state revives after n steps;
    # localization plays no role in the construction.
    rng = np.random.default_rng(45)
    for n in (2, 3, 5):
        initial = random_sparse_state(1, n, rng, sites=3)
        instance = random_cyclic_instance(1, n, rng, initial=initial)
        assert l2_distance(evolve(instance, n), initial) <= 1e-9


def test_detect_revival_two_state():
    report = detect_revival(two_state_instance(), 8)
    assert report.period == 2
    assert report.mode is RevivalMode.EXACT
    assert len(report.fidelity_series) == 3
    assert len(report.distance_series) == 3
    assert report.distance_series[2] <= 1e-9
    assert all(0.0 <= f <= 1.0 + 1e-12 for f in report.fidelity_series)


def test_detect_revival_plane():
    assert detect_revival(plane_instance(), 8).period == 3


def test_detect_revival_single_slot_walker_has_sharp_period():
    # A single-slot walker rides the coin cycle, so for 0 < t < n all
    # amplitude sits on a different slot and the overlap vanishes exactly.
    rng = np.random.default_rng(31)
    instance = WalkInstance(
        coin=build_cyclic_coin(random_cyclic_phases(5, rng)),
        shifts=build_shift_table([usual_shift_choice(5)]),
        initial=WalkState.localized(1, 5, (0,), 0),
    )
    report = detect_revival(instance, 8)
    assert report.period == 5
    assert report.fidelity_series[1:5] == (0.0, 0.0, 0.0, 0.0)


def test_detect_revival_none_within_budget():
    report = detect_revival(two_state_instance(), 1)
    assert report.period is None
    assert len(report.distance_series) == 2


def test_detect_revival_global_phase_mode():
    # Scaling a swap coin by a global phase breaks exact revivals but not
    # phase-insensitive ones: W^2 = e^{2i*alpha} * I.
    alpha = 0.3
    scaled = build_custom_coin(cmath.exp(1j * alpha) * np.array([[0, 1], [1, 0]]))
    instance = WalkInstance(
        coin=scaled,
        shifts=build_shift_table([(-1, 1)]),
        initial=WalkState.localized(1, 2, (0,), 0),
    )
    exact = detect_revival(instance, 6, RevivalMode.EXACT)
    loose = detect_revival(instance, 6, RevivalMode.GLOBAL_PHASE)
    assert exact.period is None
    assert loose.period == 2
    assert abs(loose.fidelity_series[2] - 1.0) <= 1e-12


def test_detect_revival_rejects_bad_budget():
    with pytest.raises(ValueError):
        detect_revival(two_state_instance(), -1)


def test_detect_revival_zero_budget_keeps_only_the_initial_state():
    report = detect_revival(two_state_instance(), 0)
    assert report.period is None
    assert report.distance_series == (0.0,)
    assert report.fidelity_series == (pytest.approx(1.0, abs=1e-12),)


def test_trajectory_yields_every_step_and_flags_each_return():
    instance = two_state_instance()
    rows = list(trajectory(instance, 4))
    assert [row[0] for row in rows] == [0, 1, 2, 3, 4]
    assert rows[0][1] is instance.initial
    assert [row[4] for row in rows] == [False, False, True, False, True]
    for t, state, fidelity, distance, _ in rows:
        assert l2_distance(state, evolve(instance, t)) == 0.0
        assert fidelity == abs(inner_product(instance.initial, state))
        assert distance == l2_distance(state, instance.initial)


def test_probability_distribution_two_state_after_one_step():
    instance = two_state_instance()
    dist = probability_distribution(step(instance.initial, instance))
    assert set(dist) == {(0,), (2,)}
    assert math.isclose(dist[(0,)], 0.5, abs_tol=1e-12)
    assert math.isclose(dist[(2,)], 0.5, abs_tol=1e-12)


def test_probability_distribution_three_state_after_two_steps():
    dist = probability_distribution(evolve(three_state_instance(), 2))
    assert set(dist) == {(-1,), (8,)}
    assert math.isclose(dist[(-1,)], 2.0 / 3.0, abs_tol=1e-12)
    assert math.isclose(dist[(8,)], 1.0 / 3.0, abs_tol=1e-12)


def test_probability_distribution_localized():
    dist = probability_distribution(WalkState.localized(2, 3, (0, 0), 2))
    assert dist == {(0, 0): 1.0}


def test_norm_conserved_along_trajectory():
    rng = np.random.default_rng(42)
    instance = random_cyclic_instance(2, 3, rng, initial=random_sparse_state(2, 3, rng))
    state = instance.initial
    for _ in range(20):
        state = step(state, instance)
        assert abs(state.norm() - 1.0) <= 1e-12


def test_step_preserves_inner_products():
    rng = np.random.default_rng(43)
    instance = random_cyclic_instance(1, 4, rng)
    a = random_sparse_state(1, 4, rng)
    b = random_sparse_state(1, 4, rng)
    before = inner_product(a, b)
    after = inner_product(step(a, instance), step(b, instance))
    assert abs(before - after) <= 1e-12


def test_partial_cycle_walk_revives_every_r_steps():
    coin = build_partial_cycle_coin(4, 2, [0.7, -0.7])
    shifts = build_shift_table([(1, -1, 0, 0)])
    initial = WalkState.from_entries(
        1, 4, [((0,), 0, A2), ((2,), 3, A2)]
    )
    instance = WalkInstance(coin=coin, shifts=shifts, initial=initial)
    report = detect_revival(instance, 8)
    assert report.period == 2
    assert l2_distance(evolve(instance, 4), initial) <= 1e-12


@pytest.mark.parametrize(
    "phases,rows,entries,ts",
    [
        ([0.7, -0.7], [(1, -1, 0, 0)], [((0,), 2, 1.0)], (0, 1, 5, 20)),
        ([0.7, -0.7], [(1, -1, 0, 0)], [((0,), 0, 1.0)], (7,)),
        ([0.5, 0.5, -1.0], [(2, -1, -1, 0, 0)], [((0,), 1, A2), ((1,), 4, A2)], (7,)),
        (
            [0.7, -0.7],
            [(1, -1, 0, 0), (-3, 3, 0, 0)],
            [((0, 0), 0, A2), ((2, -1), 3, A2)],
            (1, 6, 13),
        ),
        (
            [0.5, 0.5, -1.0],
            [(2, -1, -1, 0, 0), (0, 1, -1, 0, 0), (-1, 0, 1, 0, 0)],
            [((0, 0, 0), 2, A3), ((0, 0, 0), 3, A3), ((1, 1, 1), 4, A3)],
            (2, 9),
        ),
    ],
    ids=["parked", "cycled-only", "mixed", "plane", "cube"],
)
def test_partial_cycle_fixed_slots_stay_parked(phases, rows, entries, ts):
    n, r = len(rows[0]), len(phases)
    initial = WalkState.from_entries(len(rows), n, entries)
    instance = WalkInstance(
        coin=build_partial_cycle_coin(n, r, phases),
        shifts=build_shift_table(rows),
        initial=initial,
    )
    for t in ts:
        assert fixed_slot_part(evolve(instance, t), r) == fixed_slot_part(initial, r)


def test_fixed_slot_with_a_nonzero_shift_is_not_parked():
    # Parking needs both the identity block and a zero shift column; a
    # fixed slot that moves carries its amplitude away each step.
    initial = WalkState.localized(1, 3, (0,), 2)
    instance = WalkInstance(
        coin=build_partial_cycle_coin(3, 2, [0.2, -0.2]),
        shifts=build_shift_table([(1, 1, -2)]),
        initial=initial,
    )
    after = evolve(instance, 3)
    assert fixed_slot_part(after, 2) == {((-6,), 2): 1.0}
    assert fixed_slot_part(after, 2) != fixed_slot_part(initial, 2)


def test_walk_instance_validation():
    coin = build_cyclic_coin([0.0, 0.0])
    shifts = build_shift_table([(-1, 1)])
    with pytest.raises(DimensionMismatchError):
        WalkInstance(coin=coin, shifts=shifts, initial=WalkState.localized(1, 3, (0,), 0))
    with pytest.raises(DimensionMismatchError):
        WalkInstance(coin=coin, shifts=shifts, initial=WalkState.localized(2, 2, (0, 0), 0))
    lopsided = WalkState(np.array([[0]], dtype=np.int64), np.array([[0.5, 0.0]], dtype=complex))
    with pytest.raises(NormalizationError):
        WalkInstance(coin=coin, shifts=shifts, initial=lopsided)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["cyclic", "partial_cycle", "custom"]),
    d=st.integers(1, 3),
    n=st.integers(2, 5),
    t=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_producers_return_frozen_nonzero_complex_vectors(kind, d, n, t, seed):
    # The constructor trusts its arrays, so every state the package builds
    # must already hold what from_entries guarantees for outside input.
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, n + 1)) if kind == "partial_cycle" else n
    if kind == "cyclic":
        coin = build_cyclic_coin(random_cyclic_phases(n, rng))
    elif kind == "partial_cycle":
        coin = build_partial_cycle_coin(n, r, random_cyclic_phases(r, rng))
    else:
        coin = build_custom_coin(random_unitary(n, rng))
    shifts = build_shift_table([random_zero_sum_row(r, rng, bound=1) + [0] * (n - r)
                                for _ in range(d)])
    initial = random_sparse_state(d, n, rng, radius=1, sites=2)
    instance = WalkInstance(coin=coin, shifts=shifts, initial=initial)
    produced = [
        step(initial, instance),
        evolve(instance, t),
        apply_shift(initial, shifts),
        dense_oracle_evolve(instance, t, (1 + t,) * d),
        *(state for _, state, *_ in trajectory(instance, t)),
    ]
    for state in produced:
        assert (state.d, state.n) == (d, n)
        assert state.coords.dtype == np.int64 and state.coords.shape == (len(state), d)
        assert state.amps.dtype == np.complex128 and state.amps.shape == (len(state), n)
        assert not state.coords.flags.writeable and not state.amps.flags.writeable
        assert state.amps.any(axis=1).all()
        assert state.positions() == sorted(set(state.positions()))  # sorted and unique
        for pos, vec in state.items():
            assert len(pos) == d and all(type(c) is int for c in pos), pos
            assert vec.dtype == np.complex128 and vec.shape == (n,)
            assert not vec.flags.writeable
            assert vec.any(), pos


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["cyclic", "custom"]),
    d=st.integers(1, 3),
    n=st.integers(2, 5),
    t=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stepping_matches_the_dense_oracle(kind, d, n, t, seed):
    rng = np.random.default_rng(seed)
    if kind == "cyclic":
        coin = build_cyclic_coin(random_cyclic_phases(n, rng))
    else:
        coin = build_custom_coin(random_unitary(n, rng))
    shifts = build_shift_table([random_zero_sum_row(n, rng, bound=1) for _ in range(d)])
    # Slot 0 from the origin and slot 1 from a_0 - a_1 land on one site after
    # the first step, so the merge of colliding sites is always exercised.
    meet = tuple(row[0] - row[1] for row in shifts.displacements)
    entries = [(pos, j, complex(*rng.normal(size=2))) for pos in {(0,) * d, meet}
               for j in range(n)]
    instance = WalkInstance(coin=coin, shifts=shifts,
                            initial=WalkState.from_entries(d, n, entries, normalize=True))
    window = tuple(max(abs(c) for c in meet) + t for _ in range(d))
    dense = dense_oracle_evolve(instance, t, window)
    assert l2_distance(evolve(instance, t), dense) <= 1e-12
