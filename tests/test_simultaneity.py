"""Crafted simultaneous-contact scenarios for the instant resolver."""

from pathlib import Path

import numpy as np
import pytest

from congested_flow import verification
from congested_flow.cli import load_config
from congested_flow.cone import SpacingCone
from congested_flow.dynamics import EventRecord, EventTimeline, active_set_monotone, evolve, \
    trajectory_at
from congested_flow.fields import build_fields, verify_discrete_pde
from congested_flow.initdata import quantile_sample

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def cross_validate(x0, u0, cone, horizon, nt=200):
    tl = evolve(x0, u0, cone, horizon)
    times = np.linspace(0.0, horizon, nt)
    worst = 0.0
    for t, st in zip(times, tl.iter_states(times)):
        ref = trajectory_at(x0, u0, cone, float(t))
        worst = max(worst, float(np.max(np.abs(ref.positions - st.positions))))
    return tl, worst


def test_symmetric_triple_collision_single_event():
    cone = SpacingCone(3, 1.0)
    tl, worst = cross_validate(np.array([0.0, 3.0, 6.0]),
                               np.array([1.0, 0.0, -1.0]), cone, 5.0)
    assert len(tl.events) == 1
    assert tl.events[0].index_range == (0, 2)
    assert tl.events[0].time == 2.0
    assert tl.events[0].post_velocity == 0.0
    assert worst <= 1e-12


def test_disjoint_simultaneous_merges_two_events():
    cone = SpacingCone(4, 1.0)
    tl, worst = cross_validate(np.array([0.0, 3.0, 10.0, 13.0]),
                               np.array([1.0, -1.0, 1.0, -1.0]), cone, 3.0)
    assert len(tl.events) == 2
    assert tl.events[0].time == tl.events[1].time == 1.0
    assert tl.events[0].index_range == (0, 1)
    assert tl.events[1].index_range == (2, 3)
    assert active_set_monotone(tl)
    assert worst <= 1e-12


def test_touching_pair_with_equal_velocities_stays_unmerged():
    # the merged front comes to rest just short of the resting particle
    cone = SpacingCone(3, 1.0)
    tl, worst = cross_validate(np.array([0.0, 2.0, 3.0 + 1e-9]),
                               np.array([1.0, -1.0, 0.0]), cone, 4.0)
    assert len(tl.events) == 1
    assert tl.events[0].index_range == (0, 1)
    assert worst <= 1e-12


def test_fast_particle_absorbs_resting_chain_in_one_cascade():
    cone = SpacingCone.canonical(6)
    g = cone.two_r
    x0 = np.concatenate(([0.0], 1.0 + np.arange(5) * g))
    u0 = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    tl, worst = cross_validate(x0, u0, cone, 2.0)
    assert len(tl.events) == 1
    assert tl.events[0].index_range == (0, 5)
    assert abs(tl.events[0].post_velocity - 2.0 / 6.0) <= 1e-14
    assert worst <= 1e-12
    # the smooth-compression datum closes all n - 1 gaps at t = 0.5: one
    # 16384-way tie, resolved left to right
    n = 16384
    datum = load_config(str(CONFIGS / "smooth_compression.json"))["_datum"]
    x0, u0, cone = quantile_sample(datum, n)
    tl = evolve(x0, u0, cone, 1.0)
    assert len(tl.events) == 1
    e = tl.events[0]
    assert e.time == 0.5
    assert e.merged_blocks == tuple((k, k) for k in range(n))
    assert abs(e.post_velocity - float(np.mean(u0))) <= 1e-14
    times = [0.25, 0.5, 1.0]
    for t, st in zip(times, tl.iter_states(times)):
        ref = trajectory_at(x0, u0, cone, t)
        bound = 1e-9 * (1.0 + float(np.max(np.abs(ref.positions))))
        assert np.max(np.abs(ref.positions - st.positions)) <= bound
    # mirrored: a chain whose gaps close slowly (at t = 1) is hit from the
    # right at t = 0.999, when every gap sits within the contact tolerance, so
    # the merge cascades leftwards through all n - 1 chain particles
    cone = SpacingCone.canonical(n)
    slack = 1e-11
    i = np.arange(n - 1.0)
    x0 = np.append(i * (cone.two_r + slack), (n - 2) * (cone.two_r + slack) + cone.two_r + 0.999)
    u0 = np.append(-i * slack, -(n - 2) * slack - 1.0)
    tl = evolve(x0, u0, cone, 2.0)
    assert len(tl.events) == 1
    e = tl.events[0]
    assert abs(e.time - 0.999) <= 1e-12
    assert e.merged_blocks == tuple((k, k) for k in range(n))
    assert abs(e.post_velocity - float(np.mean(u0))) <= 1e-14
    times = [0.5, e.time, 2.0]
    for t, st in zip(times, tl.iter_states(times)):
        ref = trajectory_at(x0, u0, cone, t)
        bound = 1e-9 * (1.0 + float(np.max(np.abs(ref.positions))))
        assert np.max(np.abs(ref.positions - st.positions)) <= bound


def test_middle_cluster_squeezed_from_both_sides_at_same_instant():
    cone = SpacingCone(4, 1.0)
    tl, worst = cross_validate(np.array([0.0, 2.0, 3.0, 5.0]),
                               np.array([1.0, 0.0, 0.0, -1.0]), cone, 3.0)
    assert len(tl.events) == 1
    assert tl.events[0].index_range == (0, 3)
    assert tl.events[0].post_velocity == 0.0
    assert worst <= 1e-12


def test_dense_near_simultaneous_pileup():
    # tiny random slack makes collision times cluster without exact ties
    rng = np.random.default_rng(23)
    n = 200
    cone = SpacingCone.canonical(n)
    gaps = cone.two_r * (1.0 + 1e-8 * rng.random(n - 1) + 1.0)
    x0 = np.concatenate(([0.0], np.cumsum(gaps)))
    u0 = 1.0 - 2.0 * np.arange(n) / n + 1e-9 * rng.normal(size=n)
    tl, worst = cross_validate(x0, u0, cone, 2.0, nt=120)
    assert worst <= 1e-9
    assert active_set_monotone(tl)


def two_pairs_meeting_at_once():
    """Two disjoint pairs that touch at the same instant t = 1/8."""
    cone = SpacingCone.canonical(4)
    tl = evolve(np.array([0.0, 0.5, 2.5, 3.0]), np.array([1.0, -1.0, 1.0, -1.0]), cone, 1.0)
    assert [(e.time, e.index_range) for e in tl.events] == [(0.125, (0, 1)), (0.125, (2, 3))]
    return build_fields(tl)


def test_disjoint_simultaneous_merges_balance_each_own_jump():
    trace = two_pairs_meeting_at_once()
    pde = verify_discrete_pde(EventRecord(trace.timeline))
    assert pde["passed"]
    assert pde["order2_max_residual"] <= 1e-15
    assert all(r.passed for r in verification.run_battery(trace))


def test_battery_checks_every_atom_of_a_shared_instant(monkeypatch):
    # stretch the contact of one event of the instant at a time: its atom's
    # cell falls below density 1, whichever of the two events it is
    trace = two_pairs_meeting_at_once()
    rigid = EventTimeline.event_positions
    for stretched in range(len(trace.timeline.events)):
        def positions(self, event, j, stretched=stretched):
            x = rigid(self, event, j)
            x[(event == stretched) & (j == 1)] += 1e-3 * self.cone.two_r
            return x

        monkeypatch.setattr(EventTimeline, "event_positions", positions)
        reports = {r.name: r for r in verification.run_battery(trace)}
        atoms = reports["eulerian_complementarity"]
        assert not atoms.passed
        assert atoms.value == pytest.approx(1.0 - 1.0 / (1.0 + 1e-3), rel=1e-9)