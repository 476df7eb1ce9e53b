"""Microscopic engine: projection evaluation, events, multipliers, invariants."""

import dataclasses
import heapq
import itertools
import re
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from congested_flow import cone as cone_module
from congested_flow import dynamics as dynamics_module
from congested_flow.cone import SpacingCone
from congested_flow.dynamics import (
    EVENT_TIE_TOL,
    EventRecord,
    _block_means,
    _contact_starts,
    MergeEvent,
    MicroState,
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
from congested_flow.cli import load_config
from congested_flow.fields import build_fields, pressure_mass_bound, verify_discrete_pde
from congested_flow.initdata import quantile_sample
from congested_flow.random_data import random_admissible_datum
from congested_flow.scenarios import two_block_datum
from congested_flow.tolerances import JUMP_FLOOR_RTOL, contact_tol
from congested_flow.verification import TOL_SEMIGROUP, run_battery
from congested_flow.weakform import weak_form_of_trace

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TWO = SpacingCone(2, 1.0)
X2 = np.array([0.0, 2.0])
U2 = np.array([1.0, -1.0])


def test_trajectory_free_flight():
    st = trajectory_at(X2, U2, TWO, 0.25)
    np.testing.assert_allclose(st.positions, [0.25, 1.75])
    np.testing.assert_array_equal(st.velocities, U2)
    np.testing.assert_array_equal(st.starts, [0, 1])


def test_trajectory_post_collision_rest():
    # hand KKT: collision at t=0.5, symmetric rest afterwards
    st = trajectory_at(X2, U2, TWO, 1.0)
    np.testing.assert_allclose(st.positions, [0.5, 1.5])
    np.testing.assert_array_equal(st.velocities, [0.0, 0.0])
    np.testing.assert_array_equal(st.starts, [0])


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
    st = next(tl.iter_states([3.0]))
    np.testing.assert_allclose(st.positions, [2.1, 4.1, 6.1])


def test_evolve_negative_horizon():
    with pytest.raises(InputDomainError):
        evolve(X2, U2, TWO, -1.0)


def test_nan_horizon_and_query_times_are_rejected():
    # each comparison that a NaN passes: `horizon < 0.0` let a NaN horizon
    # through (no event, and the states overlapped by 1.31), and
    # `t < 0.0 or t > horizon` a NaN query time (an all-NaN state)
    x0, u0, cone = random_admissible_datum(20, np.random.default_rng(0), contacts=True)
    with pytest.raises(InputDomainError):
        evolve(x0, u0, cone, np.nan)
    # the timeline makes the same check, events or none
    for tl in (evolve(x0, u0, cone, 1.0), evolve(X2, U2, TWO, 0.25)):
        with pytest.raises(InputDomainError):
            dataclasses.replace(tl, horizon=np.nan)
        for times in ([np.nan], [np.nan, 0.2], [0.1, np.nan]):
            with pytest.raises(InputDomainError):
                list(tl.iter_states(times))


@pytest.mark.parametrize("contacts", [False, True])
def test_evolve_matches_projection_formula(contacts):
    rng = np.random.default_rng(17 if contacts else 8)
    x0, u0, cone = random_admissible_datum(50, rng, contacts=contacts)
    tl = evolve(x0, u0, cone, 3.0)
    times = np.sort(rng.uniform(0.0, 3.0, 200))
    for t, st in zip(times, tl.iter_states(times)):
        ref = trajectory_at(x0, u0, cone, float(t))
        assert np.max(np.abs(ref.positions - st.positions)) <= 1e-9


def criterion_2_small_data():
    """Acceptance criterion 2's first 35 data (n <= 100) and query times, in its draw order."""
    rng = np.random.default_rng(2002)
    for k, n in enumerate([10] * 20 + [100] * 15):
        x0, u0, cone = random_admissible_datum(n, rng, contacts=bool(k % 2))
        yield x0, u0, cone, np.sort(rng.uniform(0.0, 2.0, 200))


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_routes_agree_as_an_identity_on_criterion_2_data(offset):
    # criterion 2 compares positions within 1e-9 only; the routes agree far
    # more tightly: the same partition, bitwise velocities, positions within
    # rounding, also under translation
    queries = 0
    for x0, u0, cone, times in criterion_2_small_data():
        x0 = x0 + offset
        times = times[::4]
        for t, st in zip(times, evolve(x0, u0, cone, 2.0).iter_states(times)):
            ref = trajectory_at(x0, u0, cone, float(t))
            np.testing.assert_array_equal(ref.starts, st.starts)
            np.testing.assert_array_equal(ref.velocities, st.velocities)
            scale = 1.0 + np.max(np.abs(ref.positions))
            assert np.max(np.abs(ref.positions - st.positions)) <= 1e-12 * scale
            queries += 1
    assert queries == 35 * 50


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_routes_agree_on_partitions_at_and_before_events(offset):
    rng = np.random.default_rng(22)
    x0, u0, cone = random_admissible_datum(80, rng, contacts=True)
    x0 = x0 + offset
    tl = evolve(x0, u0, cone, 3.0)
    te = tl.times
    assert te.size > 5
    before = np.nextafter(te, -np.inf)
    times = np.sort(np.concatenate((np.linspace(0.0, 3.0, 17), te, before)))
    post = dict(zip(te.tolist(), tl.iter_states(te)))
    for t, st in zip(times, tl.iter_states(times)):
        ref = trajectory_at(x0, u0, cone, float(t))
        scale = 1.0 + np.max(np.abs(ref.positions))
        assert np.max(np.abs(ref.positions - st.positions)) <= 1e-12 * scale
        if t in before and t not in post:
            # a gap within contact_tol of two_r already counts as a contact on
            # the projection route, so one ulp early it shows the merged blocks
            after = post[float(te[np.searchsorted(before, t)])]
            np.testing.assert_array_equal(ref.starts, after.starts)
            assert not np.array_equal(st.starts, after.starts)
        else:
            np.testing.assert_array_equal(ref.starts, st.starts)
            np.testing.assert_array_equal(ref.velocities, st.velocities)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_contact_decisions_are_translation_invariant(offset):
    # a tolerance scaled by 1 + max|x| admitted free gaps within 1e-6 of two_r
    # as contacts at offset 1e6: the first datum became inadmissible, and on
    # the second trajectory_at merged every pair of clusters 1e-7 early
    x0, u0, cone = random_admissible_datum(300, np.random.default_rng(5), contacts=True)
    blocks = [[e.merged_blocks for e in evolve(x, u0, cone, 1.0).events]
              for x in (x0, x0 + offset)]
    assert len(blocks[0]) == 189 and blocks[1] == blocks[0]
    x0, u0, cone = random_admissible_datum(80, np.random.default_rng(22), contacts=True)
    x0 = x0 + offset
    tl = evolve(x0, u0, cone, 1.0)
    before = tl.times - 1e-7
    assert before.size == 39
    for t, st in zip(before, tl.iter_states(before)):
        np.testing.assert_array_equal(trajectory_at(x0, u0, cone, float(t)).starts, st.starts)


def dict_registry_states(tl, times):
    """Reference reconstruction: a block registry keyed by start index.

    This is the per-block Python loop that ``iter_states`` replaced; it yields
    (positions, velocities, block starts) per query time.
    """
    starts0 = tl.initial.starts
    ends0 = np.append(starts0[1:], tl.n) - 1
    means0 = _block_means(tl.u0, starts0)
    # start -> [end, x_left, t_ref, v]
    reg = {a: [b, float(tl.x0[a]), 0.0, float(v)]
           for a, b, v in zip(starts0.tolist(), ends0.tolist(), means0)}
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
        for a in sorted(reg):
            b, xl, tr, v = reg[a]
            x[a:b + 1] = xl + v * (t - tr) + two_r * np.arange(b + 1 - a)
            u[a:b + 1] = v
        yield x, u, sorted(reg)


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
    te = tl.times
    assert te.size > 5
    return tl, np.sort(np.concatenate((te, np.nextafter(te, -np.inf))))


def _edge_times_case():
    tl, _ = _random_contacts_case()
    te = tl.times
    h = tl.horizon
    return tl, np.array([0.0, 0.0, te[0], te[0], te[3], te[3], te[3], h, h])


@pytest.mark.parametrize("case", [_random_contacts_case, _cascade_case,
                                  _event_times_case, _edge_times_case])
def test_iter_states_matches_dict_registry(case):
    tl, times = case()
    states = list(tl.iter_states(times))
    refs = list(dict_registry_states(tl, times))
    assert len(states) == len(refs) == len(times)
    for st, (x, u, starts) in zip(states, refs):
        np.testing.assert_array_equal(st.positions, x)
        np.testing.assert_array_equal(st.velocities, u)
        assert st.starts.tolist() == starts


class _IdClusters:
    """Append-only cluster store with fresh ids per merge (reference only)."""

    def __init__(self, x0, starts, v, two_r):
        m = starts.size
        self.two_r = two_r
        self.start = starts.tolist()
        self.end = (np.append(starts[1:], x0.size) - 1).tolist()
        self.xl = x0[starts].tolist()
        self.tr = [0.0] * m
        self.v = v.tolist()
        self.alive = [True] * m
        self.prev = [k - 1 for k in range(m)]
        self.next = [k + 1 if k + 1 < m else -1 for k in range(m)]

    def new_cluster(self, a, b, xl, t, v, prev_id, next_id):
        for name, value in (("start", a), ("end", b), ("xl", xl), ("tr", t), ("v", v),
                            ("alive", True), ("prev", prev_id), ("next", next_id)):
            getattr(self, name).append(value)
        return len(self.start) - 1

    def left_edge(self, k, t):
        return self.xl[k] + self.v[k] * (t - self.tr[k])

    def right_edge(self, k, t):
        return self.left_edge(k, t) + self.two_r * (self.end[k] - self.start[k])

    def hit_time(self, c, d):
        rel = self.v[c] - self.v[d]
        if rel <= 0.0:
            return None
        lead = (self.xl[d] - self.v[d] * self.tr[d]) \
            - (self.xl[c] - self.v[c] * self.tr[c]) \
            - self.two_r * (self.end[c] - self.start[c]) - self.two_r
        return lead / rel


def id_union_find_events(x0, u0, cone, horizon):
    """Reference event loop: fresh cluster ids, a per-instant union-find and
    absorbed lists.  This is the loop that the start-keyed store of ``evolve``
    replaced; it returns the MergeEvents."""
    n = cone.n
    tol_gap = contact_tol(x0)
    starts = _contact_starts(x0, cone.two_r)
    prefix_u0 = np.concatenate(([0.0], np.cumsum(u0)))

    def range_mean(a, b):
        if a == b:
            return float(u0[a])
        return float((prefix_u0[b + 1] - prefix_u0[a]) / (b + 1 - a))

    cl = _IdClusters(x0, starts, _block_means(u0, starts), cone.two_r)
    heap = []
    counter = itertools.count()

    def push_candidate(c, d, t_now):
        if c < 0 or d < 0:
            return
        t_hit = cl.hit_time(c, d)
        if t_hit is not None and max(t_hit, t_now) <= horizon:
            heapq.heappush(heap, (max(t_hit, t_now), next(counter), c, d))

    for k in range(starts.size - 1):
        push_candidate(k, k + 1, 0.0)
    events = []
    while heap:
        t_e, _, c0, d0 = heapq.heappop(heap)
        if not (cl.alive[c0] and cl.alive[d0]):
            continue
        pairs = [(c0, d0)]
        while heap and heap[0][0] <= t_e + EVENT_TIE_TOL:
            _, _, cc, dd = heapq.heappop(heap)
            if cl.alive[cc] and cl.alive[dd]:
                pairs.append((cc, dd))
        parent, absorbed, new_roots = {}, {}, []

        def find(k):
            while not cl.alive[k]:
                k = parent[k]
            return k

        worklist = deque(sorted(pairs, key=lambda p: cl.start[p[0]]))
        while worklist:
            c, d = worklist.popleft()
            c, d = find(c), find(d)
            if c == d or cl.next[c] != d:
                continue
            a, b = cl.start[c], cl.end[d]
            m = cl.new_cluster(a, b, cl.left_edge(c, t_e), t_e, range_mean(a, b),
                               cl.prev[c], cl.next[d])
            cl.alive[c] = cl.alive[d] = False
            parent[c] = parent[d] = m
            if cl.prev[c] >= 0:
                cl.next[cl.prev[c]] = m
            if cl.next[d] >= 0:
                cl.prev[cl.next[d]] = m
            absorbed[m] = absorbed.pop(c, [c]) + absorbed.pop(d, [d])
            new_roots.append(m)
            for left, right in ((cl.prev[m], m), (m, cl.next[m])):
                if left < 0 or right < 0:
                    continue
                gap = cl.left_edge(right, t_e) - cl.right_edge(left, t_e) - cone.two_r
                if gap <= tol_gap and cl.v[left] > cl.v[right]:
                    worklist.append((left, right))
        for m in sorted((m for m in new_roots if cl.alive[m]), key=lambda m: cl.start[m]):
            pre_ids = sorted(absorbed[m], key=lambda k: cl.start[k])
            a, b = cl.start[m], cl.end[m]
            u_pre = np.empty(b + 1 - a)
            for k in pre_ids:
                u_pre[cl.start[k] - a:cl.end[k] + 1 - a] = cl.v[k]
            events.append(MergeEvent(float(t_e),
                                     tuple((cl.start[k], cl.end[k]) for k in pre_ids),
                                     cl.v[m], float(cl.xl[m]),
                                     -np.cumsum(cl.v[m] - u_pre)[:-1] / n))
            push_candidate(cl.prev[m], m, t_e)
            push_candidate(m, cl.next[m], t_e)
    return events


def _event_bits(e):
    return (np.float64(e.time).tobytes(), e.merged_blocks,
            np.float64(e.post_velocity).tobytes(), np.float64(e.x_left).tobytes(),
            e.jump_values.dtype, e.jump_values.tobytes())


def _hit_chain(n, slack):
    """A chain whose gaps close at t = 1, hit from the right at t = 0.999."""
    cone = SpacingCone.canonical(n)
    i = np.arange(n - 1.0)
    x0 = np.append(i * (cone.two_r + slack), (n - 2) * (cone.two_r + slack) + cone.two_r + 0.999)
    u0 = np.append(-i * slack, -(n - 2) * slack - 1.0)
    return x0, u0, cone


def _tie_at_half(u, slack):
    """Positions at which particles i, i + 1 (two_r = 1) sit slack[i] apart at
    t = 1/2 moving with velocities u: exact ties where the slack is 0."""
    u = np.asarray(u, dtype=float)
    return np.concatenate(([0.0], np.cumsum(1.0 + np.asarray(slack) + 0.5 * (u[:-1] - u[1:])))), u


def _large_ties():
    """Instants of at least _CHAIN_MIN pairs, which ``_merge_chains`` resolves."""
    m, hair = 64, 2e-11  # a pair a hair apart at t = 1/2 hits later, within contact_tol
    core = -0.01 - 2.0 * np.arange(m)
    # a resting pair on the left and a rigid triple on the right, each a hair
    # away and closing at 0.01: both chain checks fire
    yield _tie_at_half(np.concatenate(([0.0, 0.0], core, [core[-1] - 0.01] * 3)),
                       np.concatenate(([0.0, hair], np.zeros(m - 1), [hair, 0.0, 0.0])))
    # the right one fires on the start of the next chain
    yield _tie_at_half(np.concatenate(([3.0, 1.0], 0.9 - 2.0 * np.arange(m))),
                       np.concatenate(([0.0, hair], np.zeros(m - 1))))
    # several chains at one instant, moving apart at their junctions
    slack = np.zeros(4 * 24 - 1)
    slack[23::24] = 100.0
    yield _tie_at_half(np.concatenate([100.0 * k - 2.0 * np.arange(24) for k in range(4)]), slack)
    # two blocks made at t = 1/4 meet at t = 1/2, beside a large tie: both push
    # the pair they share
    yield (np.concatenate(([0.0, 1.5, 2.75, 4.25], 10.0 + 2.0 * np.arange(m))),
           np.concatenate(([2.0, 0.0, 0.5, -1.5], -2.0 * np.arange(m))))
    # a chain whose left edge is -0.0 at the instant, and one where it is +0.0
    x0 = 2.0 * np.arange(m)
    x0[0] = -0.0
    yield x0, -2.0 * np.arange(m)
    yield 2.0 * np.arange(m) - 1.0, 2.0 - 2.0 * np.arange(m)
    # a large tie jittered by k * EVENT_TIE_TOL: the pairs not yet due cascade
    rng = np.random.default_rng(7)
    for size in (400, 800):
        yield _tie_at_half(-2.0 * np.arange(size),
                           2.0 * EVENT_TIE_TOL * rng.integers(-3, 4, size - 1))


def _hostile_inputs(overflow=True):
    """Seeded sweep of inputs that stress the instant resolver; with
    ``overflow``, also two whose timelines are rejected."""
    rng = np.random.default_rng(2024)
    for n in (2, 3, 7, 40, 300, 2000):
        for contacts in (False, True):
            for offset in (0.0, 1e3):
                x0, u0, cone = random_admissible_datum(n, rng, contacts=contacts)
                yield x0 + offset, u0, cone, 2.0
                if n <= 300:
                    yield x0 + offset, u0, cone, 0.0
    # integer gaps and velocities in {-1, -1/2, 0, 1/2, 1}: exact ties; then the
    # free gaps jittered by k * 1e-14, at the scale of EVENT_TIE_TOL
    speeds = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for n in (4, 9, 30, 120):
        for _ in range(12):
            gaps = 1.0 + rng.integers(0, 4, n - 1)
            x0 = np.concatenate(([0.0], np.cumsum(gaps)))
            starts = np.flatnonzero(np.concatenate(([True], gaps > 1.0)))
            u0 = np.repeat(rng.choice(speeds, starts.size), np.diff(np.append(starts, n)))
            for offset in (0.0, 1e6):
                yield x0 + offset, u0, SpacingCone(n, 1.0), 6.0
            shift = np.where(gaps > 1.0, rng.integers(-3, 4, n - 1) * 1e-14, 0.0)
            yield x0 + np.concatenate(([0.0], np.cumsum(shift))), u0, SpacingCone(n, 1.0), 6.0
    # runs of equal speed (zeros of both signs among them) and pairs moving
    # apart beside closing pairs: only rel > 0 may become a first candidate
    for n in (6, 50, 400):
        x0 = np.concatenate(([0.0], np.cumsum(1.0 + rng.integers(1, 4, n - 1))))
        u0 = np.repeat(rng.choice([-1.0, -0.0, 0.0, 1.0], n // 2 + 1), 2)[:n]
        for horizon in (0.0, 1.5, 6.0):
            yield x0, u0, SpacingCone(n, 1.0), horizon
    for n in (5, 64, 1024):
        x0 = 2.0 * np.arange(n)
        for offset in (0.0, 1e6):
            # n-way compression, every gap closes at t = 1
            yield x0 + offset, -x0, SpacingCone(n, 1.0), 2.0
            yield x0 + offset, x0[::-1].copy(), SpacingCone(n, 1.0), 2.0
        # every gap within the contact tolerance: the merge cascades leftwards
        x0, u0, cone = _hit_chain(n, 1e-11)
        yield x0, u0, cone, 2.0
        yield -x0[::-1], -u0[::-1], cone, 2.0  # its mirror image, hit from the left
        # at offset 1e6 the contact tolerance exceeds 1e-11, so a wider slack
        x0, u0, cone = _hit_chain(n, 1e-7)
        for horizon in (0.0, 2.0):
            yield x0 + 1e6, u0, cone, horizon
            yield -x0[::-1] + 1e6, -u0[::-1], cone, horizon
    for x0, u0 in _large_ties():
        cone = SpacingCone(x0.size, 1.0)
        yield x0, u0, cone, 1.0
        yield -x0[::-1], -u0[::-1], cone, 1.0  # the mirror image
    if overflow:
        # velocities near the largest float, every prefix sum of u0 finite: the
        # pairs (1, 2) and (2, 3) tie at t = 1/2, the second step's velocity
        # (P[4] - P[1]) / 3 overflows, and the timeline rejects the event
        x0 = np.array([0.0, 0.1, 0.8, 1.1, 1.2]) * 1e308
        u0 = np.array([0.5, 0.5, -0.9, -1.5, 1.0]) * 1e308
        yield x0, u0, SpacingCone(5, 1.0), 1.0
        yield -x0[::-1], -u0[::-1], SpacingCone(5, 1.0), 1.0
    # the shipped smooth compression datum: all 8191 pairs tie at t = 0.5
    datum = load_config(str(CONFIGS / "smooth_compression.json"))["_datum"]
    yield *quantile_sample(datum, 8192), 1.0


def _outcome(case):
    """The bits of evolve's events on a case, or the error it raises."""
    try:
        return [_event_bits(e) for e in evolve(*case).events]
    except InvariantViolationError as exc:
        return str(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the overflowing ties
def test_evolve_matches_id_union_find_reference_bitwise():
    n_events = widest = 0
    for x0, u0, cone, horizon in _hostile_inputs():
        ref = id_union_find_events(x0, u0, cone, horizon)
        if not all(np.isfinite([e.time, e.post_velocity, e.x_left]).all()
                   and np.isfinite(e.jump_values).all() for e in ref):
            with pytest.raises(InvariantViolationError, match="non-finite"):
                evolve(x0, u0, cone, horizon)
            continue
        got = evolve(x0, u0, cone, horizon).events
        assert [_event_bits(e) for e in got] == [_event_bits(e) for e in ref]
        n_events += len(ref)
        widest = max([widest] + [len(e.merged_blocks) for e in ref])
    assert n_events > 1000 and widest == 8192


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the overflowing ties
def test_large_ties_take_the_chain_path(monkeypatch):
    # instants of _CHAIN_MIN pairs or more go to _merge_chains, and on these
    # inputs some of its cascade checks fire
    appended = []
    merge_chains = dynamics_module._merge_chains

    def counting(*args):
        out = merge_chains(*args)
        appended.append(0 if out is None else len(out[0]))
        return out

    monkeypatch.setattr(dynamics_module, "_merge_chains", counting)
    for case in _hostile_inputs():
        _outcome(case)
    assert len(appended) > 0 and sum(appended) > 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the overflowing ties
def test_chain_path_at_every_tie_keeps_the_bits(monkeypatch):
    # every tie group of two or more pairs through _merge_chains: the events
    # of the default threshold, which the reference test pins; a tie with an
    # overflowing step velocity raises "non-finite", as the item loop does
    cases = list(_hostile_inputs())
    expected = [_outcome(case) for case in cases]
    returned = []
    merge_chains = dynamics_module._merge_chains

    def recording(*args):
        returned.append(merge_chains(*args))
        return returned[-1]

    monkeypatch.setattr(dynamics_module, "_merge_chains", recording)
    monkeypatch.setattr(dynamics_module, "_CHAIN_MIN", 2)
    assert [_outcome(case) for case in cases] == expected


def _jump_case(name):
    if name == "n_way_chain":
        x0 = 2.0 * np.arange(1024)
        return x0, -x0, SpacingCone(1024, 1.0), 2.0
    seed = int(name.split("_")[-1])
    return (*random_admissible_datum(300, np.random.default_rng(seed), contacts=True), 1.0)


@pytest.mark.parametrize("name", ["contacts_seed_0", "contacts_seed_5", "contacts_seed_22",
                                  "n_way_chain"])
def test_jump_values_are_the_replayed_velocity_jumps_and_read_only(name):
    tl = evolve(*_jump_case(name))
    assert tl.events
    for e, (u_pre, _, _) in zip(tl.events, estimates_loop(tl)):
        assert _same_bits(e.jump_values, -np.cumsum(e.post_velocity - u_pre)[:-1] / tl.n)
        assert not e.jump_values.flags.writeable
        with pytest.raises(ValueError):
            e.jump_values[0] = 0.0


def test_multipliers_zero_before_any_collision():
    st = trajectory_at(X2, U2, TWO, 0.25)
    np.testing.assert_array_equal(multipliers_at(st, U2), np.zeros(3))


def test_multipliers_two_particle_jump():
    st = trajectory_at(X2, U2, TWO, 1.0)
    lam = multipliers_at(st, U2)
    np.testing.assert_allclose(lam, [0.0, 0.5, 0.0])


def test_multipliers_telescoping_closure():
    rng = np.random.default_rng(3)
    x0, u0, cone = random_admissible_datum(100, rng)
    tl = evolve(x0, u0, cone, 2.0)
    st = next(tl.iter_states([1.7]))
    lam = multipliers_at(st, u0)
    assert lam[0] == 0.0 and lam[-1] == 0.0
    assert abs(np.sum(st.velocities - u0)) <= 1e-12 * 100


def test_multipliers_detect_corrupted_state():
    st = trajectory_at(X2, U2, TWO, 1.0)
    bad = MicroState(st.time, st.positions, st.velocities + 0.25, st.starts, st.cone)
    with pytest.raises(InvariantViolationError):
        multipliers_at(bad, U2)


def test_multipliers_reject_a_nan_closure():
    # a NaN velocity makes lam_n NaN, which passes every comparison with the
    # closure tolerance; it must raise, not come back as lam = [0, nan, nan, 0]
    u0 = np.array([1.0, 0.0, -1.0])
    st = trajectory_at(np.array([0.0, 2.0, 4.0]), u0, SpacingCone(3, 1.0), 2.0)
    bad = MicroState(st.time, st.positions, np.array([np.nan, 0.0, 0.0]), st.starts, st.cone)
    with pytest.raises(InvariantViolationError, match="does not vanish"):
        multipliers_at(bad, u0)


def test_pressure_measure_empty_without_events():
    tl = evolve(np.array([0.0, 2.0]), np.array([0.3, 0.3]), TWO, 1.0)
    assert pressure_measure(tl).events == ()


def test_pressure_measure_single_atom():
    tl = evolve(X2, U2, TWO, 1.0)
    (atom,) = pressure_measure(tl).events
    assert atom.time == pytest.approx(0.5, abs=1e-15)
    assert atom.index_range == (0, 1)
    np.testing.assert_allclose(atom.jump_values, [0.5])
    assert pressure_mass_bound(build_fields(tl)) == pytest.approx(0.25, abs=1e-15)


def test_complementarity_passes_and_negative_control():
    st = trajectory_at(X2, U2, TWO, 1.0)
    assert verify_complementarity(st, multipliers_at(st, U2)).passed
    bad = np.array([0.0, -1e-3, 0.0])
    assert not verify_complementarity(st, bad).passed
    # positive multiplier on an open contact also violates
    open_state = trajectory_at(X2, U2, TWO, 0.1)
    assert not verify_complementarity(open_state, np.array([0.0, 0.5, 0.0])).passed


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


def shift_post_velocity(tl, k, dv):
    """Copy of a timeline whose event k leaves with post velocity + dv."""
    post = tl.post.copy()
    post[k] += dv
    return dataclasses.replace(tl, post=post)


def semigroup_control_case(name):
    """A real timeline and the index of the event its negative control corrupts."""
    if name == "two_block":
        x0, u0, cone = quantile_sample(two_block_datum(0.5), 256)
        return evolve(x0, u0, cone, 1.0), 0
    x0, u0, cone = random_admissible_datum(300, np.random.default_rng(100), contacts=True)
    tl = evolve(x0, u0, cone, 2.0)
    return tl, len(tl.events) // 2


@pytest.mark.parametrize("name", ["two_block", "random_contacts"])
def test_semigroup_negative_control_shifted_post_velocity(name):
    tl, k = semigroup_control_case(name)
    times = [0.0] + [e.time for e in tl.events] + [tl.horizon]
    # s and t in the free windows just before and just after event k
    s = 0.5 * (times[k] + times[k + 1])
    t = 0.5 * (times[k + 1] + times[k + 2])
    assert s < tl.events[k].time <= t
    bad = shift_post_velocity(tl, k, 1e-6)
    assert verify_semigroup(tl, s, t).passed
    report = verify_semigroup(bad, s, t)
    assert not report.passed and report.value > TOL_SEMIGROUP
    # a restart after the event starts from the corrupted state and agrees with it
    if k + 1 == len(tl.events):
        assert verify_semigroup(bad, t, tl.horizon).passed


def record_pava_sizes(monkeypatch):
    """Monkeypatch cone._pava to record the length of each input."""
    sizes = []
    pava = cone_module._pava

    def recording(y, w):
        sizes.append(y.size)
        return pava(y, w)

    monkeypatch.setattr(cone_module, "_pava", recording)
    return sizes


def test_semigroup_projects_over_the_clusters_of_the_restart_state(monkeypatch):
    x0, u0, cone = quantile_sample(two_block_datum(0.5), 8192)
    trace = build_fields(evolve(x0, u0, cone, 1.0))
    # clusters only merge, so no state has more clusters than the initial one: 2
    assert trace.timeline.initial.starts.size == 2
    sizes = record_pava_sizes(monkeypatch)
    reports = run_battery(trace, np.random.default_rng(0))
    assert all(r.passed for r in reports)
    # the 20 semigroup restarts are the battery's only projections
    assert len(sizes) == 20 and max(sizes) <= 2


def test_trajectory_projects_over_the_initial_contact_clusters(monkeypatch):
    x0, u0, cone = random_admissible_datum(2000, np.random.default_rng(15), contacts=True)
    runs = _contact_starts(x0, cone.two_r)
    assert runs.size < 0.8 * cone.n
    sizes = record_pava_sizes(monkeypatch)
    for t in (0.0, 0.3, 2.0):
        trajectory_at(x0, u0, cone, t)
    assert sizes == [runs.size] * 3


def test_projection_route_goes_through_projection_blocks(monkeypatch):
    """The semigroup restarts and trajectory_at project through the one
    driver, so the benchmark's projection layer sees them."""
    assert not hasattr(cone_module, "_project_runs")
    runs = []
    blocks = dynamics_module.projection_blocks

    def recording(cone, y, starts=None):
        runs.append(starts.size)
        return blocks(cone, y, starts)

    monkeypatch.setattr(dynamics_module, "projection_blocks", recording)
    x0, u0, cone = quantile_sample(two_block_datum(0.5), 256)
    reports = run_battery(build_fields(evolve(x0, u0, cone, 1.0)), np.random.default_rng(0))
    assert all(r.passed for r in reports)
    assert len(runs) == 20 and max(runs) <= 2
    for t in (0.0, 0.3, 2.0):
        trajectory_at(x0, u0, cone, t)
    assert runs[20:] == [2] * 3


def test_estimates_energy_drop_two_particles():
    tl = evolve(X2, U2, TWO, 1.0)
    est = verify_estimates(EventRecord(tl))
    assert est["passed"]
    np.testing.assert_allclose(est["energy_sequence"], [1.0, 0.0], atol=1e-15)


def test_estimates_rigid_translation_constant():
    tl = evolve(np.array([0.0, 2.0]), np.array([0.5, 0.5]), TWO, 1.0)
    est = verify_estimates(EventRecord(tl))
    assert est["passed"]
    assert est["sup_n_lambda"] == 0.0
    assert est["final_energy"] == est["initial_energy"]


def test_estimates_random_run_monotone():
    rng = np.random.default_rng(21)
    x0, u0, cone = random_admissible_datum(100, rng)
    est = verify_estimates(EventRecord(evolve(x0, u0, cone, 4.0)))
    assert est["passed"]
    seq = est["energy_sequence"]
    assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def with_events(tl, events):
    """``tl`` with its events replaced by (time, merged blocks) rows, each
    with zero jumps, post velocity 0 and left edge 0."""
    blocks = [block for _, bl in events for block in bl]
    contacts = sum(bl[-1][1] - bl[0][0] for _, bl in events)
    return dataclasses.replace(
        tl, times=np.array([t for t, _ in events], dtype=float),
        blocks=np.array(blocks, dtype=np.intp).reshape(-1, 2),
        block_off=np.concatenate(([0], np.cumsum([len(bl) for _, bl in events]))),
        post=np.zeros(len(events)), x_left=np.zeros(len(events)), jumps=np.zeros(contacts))


@pytest.mark.parametrize("events, named", [
    ([(0.1, [(0, 0), (1, 1)]), (0.2, [(0, 1)])], "t=0.2 merges 0..1"),
    ([(0.1, [(0, 0), (2, 2)])], "t=0.1 merges 0..2"),
    ([(0.1, [(0, 0), (1, 6)])], "t=0.1 merges 0..6"),
    ([(0.1, [(-1, 1), (2, 2)])], "t=0.1 merges -1..2"),
    ([(0.1, [(3, 2), (3, 3)])], "t=0.1 merges 3..3"),
    ([(0.1, [(0, 0), (1, 2)])], "t=0.1 merges 0..2"),
    ([(0.1, [(0, 1), (2, 2)]), (0.2, [(0, 0), (1, 1)])], "t=0.1 merges 0..2"),
    ([(0.1, [(0, 0), (1, 1)]), (0.2, [(0, 0), (1, 1), (2, 2)])], "t=0.2 merges 0..2"),
], ids=["one_block", "gap", "past_the_end", "negative", "empty", "never_made", "made_later",
        "merged_twice"])
def test_merge_forest_rejects_each_broken_rule(events, named):
    # four singletons; each case breaks one clause of the forest rule: two or
    # more blocks, contiguous, nonempty, inside 0..n-1, each made before the
    # event and merged once.  The block 1..6 has the key of 2..2, and the key
    # of 1..2 sorts next to that of 2..2.  Every reader reads the forest, so a
    # state at any instant rejects the timeline too, naming the first event
    # that breaks the rule
    x0 = np.array([0.0, 2.0, 4.0, 6.0])
    tl = evolve(x0, np.zeros(4), SpacingCone(4, 1.0), 1.0)
    ok = with_events(tl, [(0.1, [(0, 0), (1, 1)]), (0.1, [(2, 2), (3, 3)]),
                          (0.2, [(0, 1), (2, 3)])])
    assert active_set_monotone(ok) and EventRecord(ok).u_pre.size == 8
    bad = with_events(tl, events)
    assert not active_set_monotone(bad)
    for read in (lambda: EventRecord(bad), lambda: list(bad.iter_states([0.0])),
                 lambda: list(bad.iter_states([1.0]))):
        with pytest.raises(InvariantViolationError,
                           match=re.escape(f"{named}, which is not a union of current blocks")):
            read()


@pytest.mark.parametrize("blocks, named", [
    ([(1, 1), (2, 4)], "t=0.2 merges 1..4"),
    ([(0, 1), (2, 3)], "t=0.2 merges 0..3"),
    ([(2, 4), (5, 6)], "t=0.2 merges 2..6"),
], ids=["starts_inside", "ends_inside", "reaches_n"])
def test_merge_rejects_a_range_that_splits_a_block(blocks, named):
    # blocks 0..1, 2..4, 5..5 of n = 6, made at t = 0.1; a merge at t = 0.2
    # must cover whole current blocks and stay inside 0..n-1
    tl = evolve(np.arange(6.0) * 2.0, np.zeros(6), SpacingCone(6, 1.0), 1.0)
    made = [(0.1, [(0, 0), (1, 1)]), (0.1, [(2, 2), (3, 3), (4, 4)])]
    bad = with_events(tl, made + [(0.2, blocks)])
    assert not active_set_monotone(bad)
    for read in (lambda: EventRecord(bad), lambda: list(bad.iter_states([1.0]))):
        with pytest.raises(InvariantViolationError,
                           match=re.escape(f"{named}, which is not a union of current blocks")):
            read()
    ok = with_events(tl, made + [(0.2, [(0, 1), (2, 4)])])
    assert active_set_monotone(ok)
    assert [st.starts.tolist() for st in ok.iter_states([0.15, 1.0])] == [[0, 2, 5], [0, 5]]


def test_active_set_monotone_valid_and_corrupted():
    rng = np.random.default_rng(12)
    x0, u0, cone = random_admissible_datum(50, rng)
    tl = evolve(x0, u0, cone, 3.0)
    assert tl.events
    assert active_set_monotone(tl)
    # a later event starting inside an earlier merged block splits a cluster
    lo, hi = tl.events[0].index_range
    fake = (lo + 1, hi)
    # and one ending inside it drops the block's tail
    short = (lo, hi - 1)
    # and one whose range reaches past the last particle
    beyond = (0, tl.n)
    for block in (fake, short, beyond):
        # one more event at the horizon, of one block, appended to the columns
        bad = dataclasses.replace(
            tl, times=np.append(tl.times, tl.horizon), blocks=np.vstack((tl.blocks, block)),
            block_off=np.append(tl.block_off, tl.blocks.shape[0] + 1),
            post=np.append(tl.post, 0.0), x_left=np.append(tl.x_left, 0.0),
            jumps=np.append(tl.jumps, np.zeros(block[1] - block[0])))
        assert not active_set_monotone(bad)
        # every reader of the timeline reads the merge forest and rejects it
        trace = build_fields(bad)
        readers = [lambda: list(bad.iter_states([tl.horizon])),
                   lambda: verify_estimates(EventRecord(bad)),
                   lambda: verify_discrete_pde(EventRecord(bad)),
                   lambda: list(trace.iter_snapshots([tl.horizon])),
                   lambda: weak_form_of_trace(trace)]
        for read in readers:
            with pytest.raises(InvariantViolationError, match="not a union of current blocks"):
                read()


@pytest.mark.parametrize("fault", ["cut_jump", "late_event"])
def test_timeline_rejects_what_it_can_check_alone(fault):
    # neither fault needs the running partition, so no reader gets to run
    x0, u0, cone = random_admissible_datum(50, np.random.default_rng(12))
    tl = evolve(x0, u0, cone, 3.0)
    events = tl.events
    widest = max(range(len(events)), key=lambda k: events[k].jump_values.size)
    assert events[widest].index_range == (4, 22)
    with pytest.raises(InvariantViolationError):
        if fault == "cut_jump":
            # the flat jump array one entry short: the widest event's last
            dataclasses.replace(tl, jumps=np.delete(tl.jumps, tl.jump_off[widest + 1] - 1))
        else:
            times = tl.times.copy()
            times[3] = times[4] + 1e-3
            dataclasses.replace(tl, times=times)


def test_timeline_rejects_a_jump_below_the_floor():
    # the constructor is the one place the floor is checked, evolve included
    x0, u0, cone = random_admissible_datum(50, np.random.default_rng(12))
    tl = evolve(x0, u0, cone, 3.0)
    floor = -JUMP_FLOOR_RTOL * (1.0 + float(np.max(np.abs(tl.u0))))
    last = tl.jump_off[len(tl.events) // 2 + 1] - 1  # the middle event's last jump
    jumps = tl.jumps.copy()
    jumps[last] = floor
    dataclasses.replace(tl, jumps=jumps)
    jumps = jumps.copy()
    jumps[last] = 2.0 * floor
    with pytest.raises(InvariantViolationError, match="below the floor"):
        dataclasses.replace(tl, jumps=jumps)


@pytest.mark.parametrize("entry", ["first_jump", "last_jump", "post_velocity", "x_left",
                                   "time"])
def test_timeline_rejects_a_non_finite_event_entry(entry):
    # a NaN passes every comparison with the floor and the ordering test, so
    # the constructor checks finiteness on its own
    x0, u0, cone = random_admissible_datum(60, np.random.default_rng(3), contacts=True)
    tl = evolve(x0, u0, cone, 3.0)
    assert len(tl.events) == 34
    k = -1 if entry == "last_jump" else 0
    # the first jump of the first or the last event, or an entry of the first
    column = {"post_velocity": "post", "x_left": "x_left", "time": "times"}.get(entry, "jumps")
    values = getattr(tl, column).copy()
    values[tl.jump_off[:-1][k] if column == "jumps" else k] = \
        np.inf if entry == "x_left" else np.nan
    with pytest.raises(InvariantViolationError, match="non-finite"):
        dataclasses.replace(tl, **{column: values})


def estimates_reference(tl):
    """Reference: verify_estimates' per-event loop on ``estimates_loop``, numpy per event."""
    n = tl.n
    u = tl.initial.velocities
    energy = [float(np.dot(u, u) / n)]
    sup_u = float(np.max(np.abs(u)))
    sup_nlam = sup_njump = 0.0
    for e, (seg, _, lam) in zip(tl.events, estimates_loop(tl)):
        lo, hi = e.index_range
        energy.append(energy[-1] + (seg.size * e.post_velocity ** 2
                                    - float(np.dot(seg, seg))) / n)
        sup_nlam = max(sup_nlam, n * float(np.max(np.abs(lam[lo:hi + 2]))))
        dloc = np.diff(lam[max(lo - 1, 0):min(hi + 2, n) + 1])
        if dloc.size:
            sup_njump = max(sup_njump, n * float(np.max(np.abs(dloc))))
        sup_u = max(sup_u, abs(e.post_velocity))
    return energy, sup_u, sup_nlam, sup_njump


@pytest.mark.parametrize("seed", range(10))
def test_flat_estimates_equal_the_per_event_loop(seed):
    x0, u0, cone = random_admissible_datum(150, np.random.default_rng(seed), contacts=True)
    tl = evolve(x0, u0, cone, 3.0)
    est = verify_estimates(EventRecord(tl))
    energy, sup_u, sup_nlam, sup_njump = estimates_reference(tl)
    assert est["passed"] and len(energy) > 50
    assert est["energy_sequence"] == energy
    assert (est["sup_velocity"], est["sup_n_lambda"], est["sup_n_lambda_jump"]) == \
        (sup_u, sup_nlam, sup_njump)


def estimates_loop(tl):
    """Reference: the dense per-event loop of verify_estimates before the replay.

    Returns (u on lo..hi before the event, u, lam) after each event, copied.
    """
    u = tl.initial.velocities.copy()
    lam = np.zeros(tl.n + 1)
    out = []
    for e in tl.events:
        lo, hi = e.index_range
        pre = u[lo:hi + 1].copy()
        u[lo:hi + 1] = e.post_velocity
        lam[lo + 1:lo + 1 + e.jump_values.size] += e.jump_values
        out.append((pre, u.copy(), lam.copy()))
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_contacts_timeline():
    x0, u0, cone = random_admissible_datum(300, np.random.default_rng(0), contacts=True)
    return evolve(x0, u0, cone, 1.0)


def _smooth_cascade_timeline():
    datum = load_config(str(CONFIGS / "smooth_compression.json"))["_datum"]
    return evolve(*quantile_sample(datum, 256), 1.0)


@pytest.mark.parametrize("make", [_random_contacts_timeline, _smooth_cascade_timeline],
                         ids=["random_contacts", "smooth_cascade"])
def test_replay_dense_arrays_match_the_old_loops_bitwise(make):
    tl = make()
    ref = estimates_loop(tl)
    assert ref
    # query instants only: events, their left neighbours and a uniform grid
    te = tl.times
    times = np.sort(np.concatenate((te, np.nextafter(te, -np.inf), np.linspace(0.0, 1.0, 9))))
    dense = [tl.initial.velocities] + [u for _, u, _ in ref]
    counts = np.searchsorted(te, times, side="right")
    snaps = list(build_fields(tl).iter_snapshots(times))
    assert len(snaps) == times.size
    for t, count, st, snap in zip(times, counts, tl.iter_states(times), snaps):
        assert st.time == snap.time == t
        assert _same_bits(st.velocities, dense[count]) and _same_bits(snap.u, dense[count])
        # the snapshots carry the multipliers of their states
        assert _same_bits(snap.lam, multipliers_at(st, tl.u0))


def record_reference(tl):
    """Reference: every ``EventRecord`` field from a per-event loop over
    dense u and lam and the replay's per-start data (x_left, t_ref, v):
    the merged blocks' left edges read just before each event, everything
    else just after it; ``head`` maps each current block's last particle
    to its first."""
    n, two_r = tl.n, tl.cone.two_r
    starts = tl.initial.starts
    u, lam = tl.initial.velocities.copy(), np.zeros(n + 1)
    x_left, t_ref, v = tl.x0.copy(), np.zeros(n), tl.initial.velocities.copy()
    head = dict(zip((np.append(starts[1:], n) - 1).tolist(), starts.tolist()))

    def at(a, i, t):
        return x_left[a] + v[a] * (t - t_ref[a]) + two_r * (i - a)

    out = {name: [] for name in ("u_pre", "x", "x_pre", "sides", "lam", "dots", "index")}
    ends = [(at(0, 0, 0.0), at(head[n - 1], n - 1, 0.0))]
    for e in tl.events:
        (lo, hi), t = e.index_range, e.time
        out["x_pre"] += [np.full(b + 1 - a, at(a, a, t)) + two_r * np.arange(b + 1 - a)
                         for a, b in e.merged_blocks]
        pre = u[lo:hi + 1].copy()
        u[lo:hi + 1] = e.post_velocity
        lam[lo + 1:hi + 1] += e.jump_values
        x_left[lo], t_ref[lo], v[lo] = e.x_left, t, e.post_velocity
        out["u_pre"].append(pre)
        out["dots"].append(float(np.dot(pre, pre)))
        out["lam"].append(lam[lo + 1:hi + 1].copy())
        out["x"].append(e.x_left + two_r * np.arange(hi + 1 - lo))
        out["index"].append(np.arange(lo, hi + 1))
        left = (at(head[lo - 1], lo - 1, t), v[head[lo - 1]]) if lo > 0 else (np.nan, np.nan)
        right = (at(hi + 1, hi + 1, t), v[hi + 1]) if hi + 1 < n else (np.nan, np.nan)
        out["sides"].append(np.array(left + right))
        head[hi] = lo
        ends.append((at(0, 0, t), at(head[n - 1], n - 1, t)))
    ends.append((at(0, 0, tl.horizon), at(head[n - 1], n - 1, tl.horizon)))
    ref = {name: parts if name == "dots" else np.concatenate(parts) if parts else np.zeros(0)
           for name, parts in out.items()}
    ref["sides"] = np.reshape(ref["sides"], (-1, 4))
    ref["ends"] = np.array(ends, dtype=float)
    ref["off"] = np.concatenate(([0], np.cumsum([p.size for p in out["u_pre"]])))
    return ref


def _record_cases():
    yield from _hostile_inputs(overflow=False)
    # two disjoint pairs meeting at t = 1/8
    yield np.array([0.0, 0.5, 2.5, 3.0]), np.array([1.0, -1.0, 1.0, -1.0]), \
        SpacingCone.canonical(4), 1.0
    for seed in range(3):
        yield *random_admissible_datum(400, np.random.default_rng(seed), contacts=True), 3.0


def test_event_record_equals_the_per_event_reference_bitwise():
    events = 0
    for x0, u0, cone, horizon in _record_cases():
        tl = evolve(x0, u0, cone, horizon)
        rec, ref = EventRecord(tl), record_reference(tl)
        for name, want in ref.items():
            got = getattr(rec, name)
            if name == "dots":
                assert got == want
            elif want.size:
                assert _same_bits(got, want.astype(got.dtype)), name
            else:
                assert got.size == 0, name
        events += tl.times.size
    assert events > 5000


def test_record_diff_and_steps_are_adjoint_on_every_event():
    # per event, sum over contacts c * diff(v) = -sum over particles steps(c) * v:
    # exactly on small integers, and on the record's own values within the
    # rounding of sums of size + 1 products of |c| * |v|
    rng = np.random.default_rng(0)
    events = 0
    for x0, u0, cone, horizon in _record_cases():
        rec = EventRecord(evolve(x0, u0, cone, horizon))
        k = np.arange(rec.times.size)
        if not k.size:
            continue
        per_particle, per_contact = np.repeat(k, rec.sizes), np.repeat(k, rec.sizes - 1)

        def gap(v, c):
            return (np.bincount(per_contact, c * rec.diff(v), k.size)
                    + np.bincount(per_particle, rec.steps(c) * v, k.size))

        v = rng.integers(-1000, 1000, rec.u_pre.size).astype(float)
        c = rng.integers(-1000, 1000, rec.jumps.size).astype(float)
        assert np.array_equal(gap(v, c), np.zeros(k.size))
        for v, c in ((rec.x, rec.lam), (rec.u_pre, rec.jumps)):
            bound = (2.0 * np.bincount(per_contact, np.abs(c), k.size)
                     * np.maximum.reduceat(np.abs(v), rec.off[:-1]))
            assert np.all(np.abs(gap(v, c)) <= 4 * (rec.sizes + 2) * np.finfo(float).eps * bound)
        events += k.size
    assert events > 5000


def test_state_multipliers_equal_the_record_multipliers_at_every_event():
    # the exported lam, multipliers_at of the state after each distinct event
    # instant (the velocity recursion), and the checked one, EventRecord.lam
    # on each event's contacts lo+1..hi (the accumulated jumps), agree within
    # rounding.  multipliers_at is a running sum of n terms whose partial
    # sums are multipliers, so its rounding is of order n eps max|lam|.  The
    # difference measured at most 1.75 n eps max|lam|, held to 4; a shift of
    # the contacts by one breaks it at every instant
    eps = np.finfo(float).eps
    compared = shifted = 0
    for x0, u0, cone, horizon in _record_cases():
        tl = evolve(x0, u0, cone, horizon)
        rec = EventRecord(tl)
        contact = rec.index[rec.inner] + 1  # aligned with rec.lam
        instants, first = np.unique(tl.times, return_index=True)
        bounds = tl.jump_off[np.append(first, tl.times.size)]
        for st, j0, j1 in zip(tl.iter_states(instants), bounds[:-1], bounds[1:]):
            lam = multipliers_at(st, tl.u0)
            bound = 4 * tl.n * eps * np.max(np.abs(lam))
            assert np.all(np.abs(lam[contact[j0:j1]] - rec.lam[j0:j1]) <= bound)
            shifted += bool(np.any(np.abs(lam[contact[j0:j1] - 1] - rec.lam[j0:j1]) > bound))
            compared += j1 - j0
    assert compared > 100000 and shifted > 9000


def mask_replay_reference(tl, times):
    """Reference: the replay that applied each event to a block-start mask.

    The mask has length n + 1 with the sentinel entry n set; an event must
    start and end on whole blocks, clears the starts inside its range and
    sets, at its start, the left edge x_left at time t_ref and the velocity
    v.  Yields (x, u, starts) at each query instant.
    """
    n, two_r = tl.n, tl.cone.two_r
    is_start = np.zeros(n + 1, dtype=bool)
    is_start[tl.initial.starts] = True
    is_start[n] = True
    x_left, t_ref, v = tl.x0.copy(), np.zeros(n), tl.initial.velocities.copy()
    ev_times, left, post = tl.times.tolist(), tl.x_left.tolist(), tl.post.tolist()
    ev = 0
    for t in times:
        while ev < len(ev_times) and ev_times[ev] <= t:
            lo, hi = int(tl.lo[ev]), int(tl.hi[ev])
            assert is_start[lo] and is_start[hi + 1]
            is_start[lo + 1:hi + 1] = False
            x_left[lo], t_ref[lo], v[lo] = left[ev], ev_times[ev], post[ev]
            ev += 1
        bounds = np.flatnonzero(is_start)
        starts, sizes = bounds[:-1], np.diff(bounds)
        x_l = x_left[starts] + v[starts] * (t - t_ref[starts])
        x = np.repeat(x_l, sizes) + two_r * (np.arange(sizes.sum()) - np.repeat(starts, sizes))
        yield x, np.repeat(v[starts], sizes), starts


def _query_instants(tl):
    """0, the horizon (twice), a grid, and up to 48 distinct event instants
    (every tie among them, up to 16), each also just before it."""
    instants, count = np.unique(tl.times, return_counts=True)
    picked = instants[np.linspace(0, instants.size - 1, min(instants.size, 32)).astype(int)]
    events = np.concatenate((picked, instants[count > 1][:16]))
    times = np.concatenate(([0.0, tl.horizon, tl.horizon], np.linspace(0.0, tl.horizon, 7),
                            events, np.nextafter(events, -np.inf)))
    return np.sort(times[times >= 0.0]).tolist()


def test_states_and_snapshots_equal_the_mask_replay_bitwise():
    queries = ties = 0
    for x0, u0, cone, horizon in _record_cases():
        tl = evolve(x0, u0, cone, horizon)
        times, trace = _query_instants(tl), build_fields(tl)
        states, snaps = list(tl.iter_states(times)), list(trace.iter_snapshots(times))
        assert len(states) == len(snaps) == len(times)
        refs = mask_replay_reference(tl, times)
        for t, (x, u, starts), st, snap in zip(times, refs, states, snaps):
            assert st.time == snap.time == t
            assert _same_bits(st.positions, x) and _same_bits(st.velocities, u)
            assert _same_bits(st.starts, starts)
            assert _same_bits(snap.x_nodes, trace.padding.pad(x, cone.two_r))
            assert _same_bits(snap.u, u) and _same_bits(snap.lam, multipliers_at(st, tl.u0))
        queries += len(times)
        ties += int(np.isin(times, tl.times[1:][np.diff(tl.times) == 0.0]).sum())
    assert queries > 5000 and ties > 100


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
    counts = [st.starts.size for st in tl.iter_states(np.linspace(0, 5, 21))]
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
    s1, s2 = next(tl1.iter_states([1.7])), next(tl2.iter_states([1.7]))
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


@pytest.mark.parametrize("starts", [[1, 3], [0, 2, 2], [0, 3, 1], [0, 4], []],
                         ids=["no_zero", "repeat", "descending", "reaches_n", "empty"])
def test_microstate_rejects_bad_starts(starts):
    st = trajectory_at(np.array([0.0, 2.0, 4.0, 6.0]), np.zeros(4), SpacingCone(4, 1.0), 0.5)
    MicroState(st.time, st.positions, st.velocities, np.array([0, 2]), st.cone)
    with pytest.raises(InputDomainError):
        MicroState(st.time, st.positions, st.velocities, np.array(starts, dtype=int), st.cone)


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
    est = verify_estimates(EventRecord(tl))
    seq = est["energy_sequence"]
    assert len(seq) == len(tl.events) + 1
    u = tl.initial.velocities.copy()
    for e, e_pre, e_post in zip(tl.events, seq, seq[1:]):
        lo, hi = e.index_range
        if np.ptp(u[lo:hi + 1]) > 1e-12:
            assert e_post < e_pre
        u[lo:hi + 1] = e.post_velocity


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_velocity_scaling_halves_time(seed):
    # doubling every velocity runs the same trajectory twice as fast; the
    # factor 2 is exact in binary floating point, so the match is bitwise
    x0, u0, cone = random_admissible_datum(300, np.random.default_rng(seed), contacts=True)
    ref = evolve(x0, u0, cone, 1.0)
    fast = evolve(x0, 2.0 * u0, cone, 0.5)
    assert len(ref.events) > 100
    assert len(fast.events) == len(ref.events)
    for e, f in zip(ref.events, fast.events):
        assert f.index_range == e.index_range
        assert f.time == e.time / 2.0
        assert f.post_velocity == 2.0 * e.post_velocity
        np.testing.assert_array_equal(f.jump_values, 2.0 * e.jump_values)
    times = np.linspace(0.0, 1.0, 11)
    for st, sf in zip(ref.iter_states(times), fast.iter_states(times / 2.0)):
        np.testing.assert_array_equal(sf.positions, st.positions)
        np.testing.assert_array_equal(sf.velocities, 2.0 * st.velocities)
        np.testing.assert_array_equal(sf.starts, st.starts)
