"""Microscopic engine: projection evaluation, events, multipliers, invariants."""

import numpy as np
import pytest

from congested_flow.cone import SpacingCone
from congested_flow.dynamics import (
    _block_means,
    ClusterPartition,
    EventTimeline,
    MicroState,
    MultiplierVector,
    active_set_monotone,
    evolve,
    multipliers_at,
    pressure_measure,
    trajectory_at,
    verify_complementarity,
    verify_estimates,
    verify_oleinik,
    verify_semigroup,
)
from congested_flow.errors import (
    AdmissibilityError,
    InputDomainError,
    InvariantViolationError,
    PreconditionError,
)
from congested_flow.random_data import random_admissible_datum

TWO = SpacingCone(2, 1.0)
X2 = np.array([0.0, 2.0])
U2 = np.array([1.0, -1.0])


def test_trajectory_free_flight():
    st = trajectory_at(X2, U2, TWO, 0.25)
    np.testing.assert_allclose(st.positions, [0.25, 1.75])
    np.testing.assert_array_equal(st.velocities, U2)
    assert st.partition.blocks == ((0, 0), (1, 1))


def test_trajectory_post_collision_rest():
    # hand KKT: collision at t=0.5, symmetric rest afterwards
    st = trajectory_at(X2, U2, TWO, 1.0)
    np.testing.assert_allclose(st.positions, [0.5, 1.5])
    np.testing.assert_array_equal(st.velocities, [0.0, 0.0])
    assert st.partition.blocks == ((0, 1),)


def test_trajectory_identity_at_zero():
    st = trajectory_at(X2, U2, TWO, 0.0)
    np.testing.assert_array_equal(st.positions, X2)
    np.testing.assert_array_equal(st.velocities, U2)


def test_trajectory_right_continuous_at_event():
    st = trajectory_at(X2, U2, TWO, 0.5)
    np.testing.assert_allclose(st.positions, [0.5, 1.5])
    np.testing.assert_array_equal(st.velocities, [0.0, 0.0])


def test_trajectory_preconditions():
    with pytest.raises(InputDomainError):
        trajectory_at(X2, U2, TWO, -0.1)
    with pytest.raises(PreconditionError):
        trajectory_at(np.array([0.0, 0.5]), U2, TWO, 0.1)  # infeasible
    with pytest.raises(AdmissibilityError):
        trajectory_at(np.array([0.0, 1.0]), U2, TWO, 0.1)  # shear at contact
    with pytest.raises(AdmissibilityError):
        evolve(np.array([0.0, 1.0]), U2, TWO, 1.0)
    with pytest.raises(AdmissibilityError):  # shear across a contact at a large offset
        evolve(np.array([0.0, 1.0, 3.0]) + 1e6, np.array([0.5, 0.5 + 1e-3, 0.0]),
               SpacingCone(3, 1.0), 1.0)
    with pytest.raises(InputDomainError):
        evolve(X2, np.zeros(3), TWO, 1.0)


def test_evolve_single_event():
    tl = evolve(X2, U2, TWO, 2.0)
    assert len(tl.events) == 1
    e = tl.events[0]
    assert e.time == pytest.approx(0.5, abs=1e-15)
    assert e.index_range == (0, 1)
    assert e.post_velocity == 0.0
    np.testing.assert_allclose(e.jump_values, [0.5])


def test_evolve_rigid_translation_no_events():
    tl = evolve(np.array([0.0, 2.0, 4.0]), np.full(3, 0.7), SpacingCone(3, 1.0), 5.0)
    assert tl.events == ()
    st = tl.state_at(3.0)
    np.testing.assert_allclose(st.positions, [2.1, 4.1, 6.1])


def test_evolve_negative_horizon():
    with pytest.raises(InputDomainError):
        evolve(X2, U2, TWO, -1.0)


@pytest.mark.parametrize("contacts", [False, True])
def test_evolve_matches_projection_formula(contacts):
    rng = np.random.default_rng(17 if contacts else 8)
    x0, u0, cone = random_admissible_datum(50, rng, contacts=contacts)
    tl = evolve(x0, u0, cone, 3.0)
    times = np.sort(rng.uniform(0.0, 3.0, 200))
    for t, st in zip(times, tl.iter_states(times)):
        ref = trajectory_at(x0, u0, cone, float(t))
        assert np.max(np.abs(ref.positions - st.positions)) <= 1e-9


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_routes_agree_on_partitions_at_and_before_events(offset):
    rng = np.random.default_rng(22)
    x0, u0, cone = random_admissible_datum(80, rng, contacts=True)
    x0 = x0 + offset
    tl = evolve(x0, u0, cone, 3.0)
    te = tl.event_times()
    assert te.size > 5
    before = np.nextafter(te, -np.inf)
    times = np.sort(np.concatenate((np.linspace(0.0, 3.0, 17), te, before)))
    post = dict(zip(te.tolist(), tl.states_at(te)))
    for t, st in zip(times, tl.iter_states(times)):
        ref = trajectory_at(x0, u0, cone, float(t))
        scale = 1.0 + np.max(np.abs(ref.positions))
        assert np.max(np.abs(ref.positions - st.positions)) <= 1e-12 * scale
        if t in before and t not in post:
            # a gap within CONTACT_RTOL of two_r already counts as a contact on
            # the projection route, so one ulp early it shows the merged blocks
            after = post[float(te[np.searchsorted(before, t)])]
            assert ref.partition.blocks == after.partition.blocks
            assert st.partition.blocks != after.partition.blocks
        else:
            assert ref.partition.blocks == st.partition.blocks
            np.testing.assert_array_equal(ref.velocities, st.velocities)


def dict_registry_states(tl, times):
    """Reference reconstruction: a block registry keyed by start index.

    This is the per-block Python loop that ``iter_states`` replaced; it yields
    (positions, velocities, blocks) per query time.
    """
    starts0 = np.array([a for a, _ in tl.initial_blocks])
    means0 = _block_means(tl.u0, starts0)
    # start -> [end, x_left, t_ref, v]
    reg = {a: [b, float(tl.x0[a]), 0.0, float(v)]
           for (a, b), v in zip(tl.initial_blocks, means0)}
    ev = 0
    n = tl.n
    two_r = tl.cone.two_r
    for t in times:
        t = float(t)
        while ev < len(tl.events) and tl.events[ev].time <= t:
            e = tl.events[ev]
            lo, hi = e.index_range
            a = lo
            while a <= hi:
                a = reg.pop(a)[0] + 1
            reg[lo] = [hi, e.x_left, e.time, e.post_velocity]
            ev += 1
        x = np.empty(n)
        u = np.empty(n)
        blocks = []
        for a in sorted(reg):
            b, xl, tr, v = reg[a]
            x[a:b + 1] = xl + v * (t - tr) + two_r * np.arange(b + 1 - a)
            u[a:b + 1] = v
            blocks.append((a, b))
        yield x, u, tuple(blocks)


def _random_contacts_case():
    rng = np.random.default_rng(22)
    x0, u0, cone = random_admissible_datum(80, rng, contacts=True)
    return evolve(x0, u0, cone, 3.0), np.sort(rng.uniform(0.0, 3.0, 60))


def _cascade_case():
    # u = -x with spacing 2 and two_r = 1: every gap closes at t = 1
    n = 64
    x0 = 2.0 * np.arange(n)
    tl = evolve(x0, -x0, SpacingCone(n, 1.0), 2.0)
    assert len(tl.events) == 1 and len(tl.events[0].merged_blocks) == n
    return tl, np.array([0.5, 1.0, 1.5, 2.0])


def _event_times_case():
    tl, _ = _random_contacts_case()
    te = tl.event_times()
    assert te.size > 5
    return tl, np.sort(np.concatenate((te, np.nextafter(te, -np.inf))))


def _edge_times_case():
    tl, _ = _random_contacts_case()
    te = tl.event_times()
    h = tl.horizon
    return tl, np.array([0.0, 0.0, te[0], te[0], te[3], te[3], te[3], h, h])


@pytest.mark.parametrize("case", [_random_contacts_case, _cascade_case,
                                  _event_times_case, _edge_times_case])
def test_iter_states_matches_dict_registry(case):
    tl, times = case()
    states = tl.states_at(times)
    refs = list(dict_registry_states(tl, times))
    assert len(states) == len(refs) == len(times)
    for st, (x, u, blocks) in zip(states, refs):
        np.testing.assert_array_equal(st.positions, x)
        np.testing.assert_array_equal(st.velocities, u)
        assert st.partition.blocks == blocks


def test_multipliers_zero_before_any_collision():
    st = trajectory_at(X2, U2, TWO, 0.25)
    np.testing.assert_array_equal(multipliers_at(st, U2).lambdas, np.zeros(3))


def test_multipliers_two_particle_jump():
    st = trajectory_at(X2, U2, TWO, 1.0)
    mult = multipliers_at(st, U2)
    np.testing.assert_allclose(mult.lambdas, [0.0, 0.5, 0.0])


def test_multipliers_telescoping_closure():
    rng = np.random.default_rng(3)
    x0, u0, cone = random_admissible_datum(100, rng)
    tl = evolve(x0, u0, cone, 2.0)
    st = tl.state_at(1.7)
    mult = multipliers_at(st, u0)
    assert mult.lambdas[0] == 0.0 and mult.lambdas[-1] == 0.0
    assert abs(np.sum(st.velocities - u0)) <= 1e-12 * 100


def test_multipliers_detect_corrupted_state():
    st = trajectory_at(X2, U2, TWO, 1.0)
    bad = MicroState(st.time, st.positions, st.velocities + 0.25, st.partition, st.cone)
    with pytest.raises(InvariantViolationError):
        multipliers_at(bad, U2)


def test_pressure_measure_empty_without_events():
    tl = evolve(np.array([0.0, 2.0]), np.array([0.3, 0.3]), TWO, 1.0)
    assert pressure_measure(tl).atoms == ()


def test_pressure_measure_single_atom():
    tl = evolve(X2, U2, TWO, 1.0)
    pm = pressure_measure(tl)
    (atom,) = pm.atoms
    assert atom.time == pytest.approx(0.5, abs=1e-15)
    assert atom.index_range == (0, 1)
    np.testing.assert_allclose(atom.jump_values, [0.5])
    assert pm.total_mass() == pytest.approx(0.25, abs=1e-15)


def test_complementarity_passes_and_negative_control():
    st = trajectory_at(X2, U2, TWO, 1.0)
    mult = multipliers_at(st, U2)
    assert verify_complementarity(st, mult).passed
    bad = MultiplierVector(np.array([0.0, -1e-3, 0.0]))
    assert not verify_complementarity(st, bad).passed
    # positive multiplier on an open contact also violates
    open_state = trajectory_at(X2, U2, TWO, 0.1)
    assert not verify_complementarity(open_state, MultiplierVector(
        np.array([0.0, 0.5, 0.0]))).passed


def test_oleinik_in_contact_and_compression():
    st = trajectory_at(X2, U2, TWO, 1.0)
    rep = verify_oleinik(st)
    assert rep.passed and rep.value == 0.0
    st = trajectory_at(X2, U2, TWO, 0.25)
    rep = verify_oleinik(st)
    assert rep.passed and rep.value == pytest.approx(0.25 * (-2.0) / 1.5)


def test_oleinik_expanding_free_flight_formula():
    x0, u0 = np.array([0.0, 2.0]), np.array([-1.0, 1.0])
    for t in (0.5, 2.0, 7.0):
        st = trajectory_at(x0, u0, TWO, t)
        rep = verify_oleinik(st)
        assert rep.value == pytest.approx(2.0 * t / (2.0 + 2.0 * t), rel=1e-12)
        assert rep.passed


def test_oleinik_rejects_t_zero():
    st = trajectory_at(X2, U2, TWO, 0.0)
    with pytest.raises(PreconditionError):
        verify_oleinik(st)


def test_semigroup_across_event_and_free_window():
    tl = evolve(X2, U2, TWO, 2.0)
    assert verify_semigroup(tl, 0.2, 1.2).passed  # straddles the event
    assert verify_semigroup(tl, 0.1, 0.3).passed  # free-flight window
    assert verify_semigroup(tl, 0.0, 2.0).passed  # defining formula
    with pytest.raises(InputDomainError):
        verify_semigroup(tl, 1.0, 0.5)


def test_estimates_energy_drop_two_particles():
    tl = evolve(X2, U2, TWO, 1.0)
    est = verify_estimates(tl)
    assert est["passed"]
    np.testing.assert_allclose(est["energy_sequence"], [1.0, 0.0], atol=1e-15)


def test_estimates_rigid_translation_constant():
    tl = evolve(np.array([0.0, 2.0]), np.array([0.5, 0.5]), TWO, 1.0)
    est = verify_estimates(tl)
    assert est["passed"]
    assert est["sup_n_lambda"] == 0.0
    assert est["final_energy"] == est["initial_energy"]


def test_estimates_random_run_monotone():
    rng = np.random.default_rng(21)
    x0, u0, cone = random_admissible_datum(100, rng)
    est = verify_estimates(evolve(x0, u0, cone, 4.0))
    assert est["passed"]
    seq = est["energy_sequence"]
    assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def test_active_set_monotone_valid_and_corrupted():
    rng = np.random.default_rng(12)
    x0, u0, cone = random_admissible_datum(50, rng)
    tl = evolve(x0, u0, cone, 3.0)
    assert tl.events
    assert active_set_monotone(tl)
    # a later event starting inside an earlier merged block splits a cluster
    lo, hi = tl.events[0].index_range
    fake = type(tl.events[0])(tl.horizon, ((lo + 1, hi),), 0.0, 0.0,
                              np.zeros(hi - lo - 1))
    # and one ending inside it drops the block's tail
    short = type(tl.events[0])(tl.horizon, ((lo, hi - 1),), 0.0, 0.0,
                               np.zeros(hi - lo - 1))
    for event in (fake, short):
        bad = EventTimeline(tl.cone, tl.horizon, tl.x0, tl.u0, tl.initial_blocks,
                            tl.events + (event,), tl.initial)
        assert not active_set_monotone(bad)
        with pytest.raises(InvariantViolationError):
            bad.states_at([tl.horizon])


def test_momentum_conservation_exact():
    rng = np.random.default_rng(14)
    x0, u0, cone = random_admissible_datum(500, rng, contacts=True)
    tl = evolve(x0, u0, cone, 3.0)
    s0 = float(np.sum(tl.initial.velocities))
    for st in tl.iter_states(np.linspace(0.0, 3.0, 7)):
        assert abs(float(np.sum(st.velocities)) - s0) <= 1e-12 * 500


def test_cluster_count_nonincreasing():
    rng = np.random.default_rng(15)
    x0, u0, cone = random_admissible_datum(80, rng)
    tl = evolve(x0, u0, cone, 5.0)
    counts = [len(st.partition.blocks) for st in tl.iter_states(np.linspace(0, 5, 21))]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_determinism_bit_identical_reruns():
    rng = np.random.default_rng(16)
    x0, u0, cone = random_admissible_datum(60, rng, contacts=True)
    tl1 = evolve(x0, u0, cone, 2.0)
    tl2 = evolve(x0, u0, cone, 2.0)
    assert len(tl1.events) == len(tl2.events)
    for e1, e2 in zip(tl1.events, tl2.events):
        assert e1.time == e2.time and e1.merged_blocks == e2.merged_blocks
        np.testing.assert_array_equal(e1.jump_values, e2.jump_values)
    s1, s2 = tl1.state_at(1.7), tl2.state_at(1.7)
    np.testing.assert_array_equal(s1.positions, s2.positions)


def test_perturbation_contraction_probe():
    rng = np.random.default_rng(18)
    x0, u0, cone = random_admissible_datum(40, rng)
    eps = 1e-6 * rng.normal(size=40)
    gaps = np.diff(x0)
    # keep the perturbed configuration inside the cone
    eps[np.concatenate(([False], gaps - cone.two_r < 1e-5))] = 0.0
    eps[np.concatenate((gaps - cone.two_r < 1e-5, [False]))] = 0.0
    tl_a = evolve(x0, u0, cone, 2.0)
    tl_b = evolve(x0 + eps, u0, cone, 2.0)
    d0 = np.sqrt(np.sum(eps ** 2) / 40)
    times = np.linspace(0.0, 2.0, 41)
    for sa, sb in zip(tl_a.iter_states(times), tl_b.iter_states(times)):
        d = np.sqrt(np.sum((sa.positions - sb.positions) ** 2) / 40)
        assert d <= d0 + 1e-12


def test_partition_validation():
    with pytest.raises(InputDomainError):
        ClusterPartition(((0, 1), (3, 4)))  # gap in the covering
    with pytest.raises(InputDomainError):
        ClusterPartition(((0, 1), (1, 2)))  # overlap
    part = ClusterPartition(((0, 2), (3, 3)))
    assert part.contact_set() == frozenset({1, 2})


def test_velocity_maximum_principle():
    # cluster means never exceed the initial velocity range
    rng = np.random.default_rng(19)
    x0, u0, cone = random_admissible_datum(150, rng, contacts=True)
    tl = evolve(x0, u0, cone, 4.0)
    for st in tl.iter_states(np.linspace(0.0, 4.0, 17)):
        assert st.velocities.max() <= u0.max() + 1e-14
        assert st.velocities.min() >= u0.min() - 1e-14


def test_energy_strictly_decreases_at_heterogeneous_merges():
    rng = np.random.default_rng(20)
    x0, u0, cone = random_admissible_datum(120, rng)
    tl = evolve(x0, u0, cone, 4.0)
    est = verify_estimates(tl)
    seq = est["energy_sequence"]
    assert len(seq) == len(tl.events) + 1
    u = tl.initial.velocities.copy()
    for e, e_pre, e_post in zip(tl.events, seq, seq[1:]):
        lo, hi = e.index_range
        if np.ptp(u[lo:hi + 1]) > 1e-12:
            assert e_post < e_pre
        u[lo:hi + 1] = e.post_velocity
