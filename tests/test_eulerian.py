"""Push-forward reconstruction, weak residuals, Eulerian-side checks."""

import dataclasses

import numpy as np
import pytest

from congested_flow.cone import SpacingCone
from congested_flow.dynamics import evolve, pressure_measure, trajectory_at
from congested_flow.errors import InputDomainError
from congested_flow.eulerian import (
    EulerianSnapshot,
    complementarity_eulerian,
    oleinik_eulerian,
    pressure_pushforward,
    snapshot,
    wasserstein_time_modulus,
    weak_residual_suite,
)
from congested_flow.fields import build_fields
from congested_flow.initdata import MacroscopicDatum, quantile_sample, \
    rearrangement_from_density
from congested_flow.piecewise import PiecewiseField
from congested_flow.random_data import random_admissible_datum
from congested_flow.scenarios import rebound_solution, sticky_solution
from congested_flow.testfunctions import SpaceBump, TestFunction, TimeWindow, \
    build_test_family
from congested_flow.verification import run_battery
from congested_flow.weakform import weak_form_of_trace

TWO = SpacingCone(2, 1.0)


def constant_velocity(c):
    return PiecewiseField.constant(np.array([0.0, 1.0]), np.array([c]))


def test_snapshot_packed_block_density_one():
    datum = MacroscopicDatum(rearrangement_from_density([(0.0, 1.0, 1.0)]),
                             constant_velocity(0.0))
    x0, u0, cone = quantile_sample(datum, 16)
    snap = snapshot(trajectory_at(x0, u0, cone, 0.0), cone)
    np.testing.assert_allclose(snap.density[1:], 1.0, atol=1e-14)
    assert snap.density[0] < 1.0  # padding cell never saturates
    assert snap.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_snapshot_uniform_dilution_density_half():
    datum = MacroscopicDatum(rearrangement_from_density([(0.0, 2.0, 0.5)]),
                             constant_velocity(0.0))
    x0, u0, cone = quantile_sample(datum, 16)
    snap = snapshot(trajectory_at(x0, u0, cone, 0.0), cone)
    np.testing.assert_allclose(snap.density[1:], 0.5, atol=1e-14)


def test_snapshot_two_particle_post_merge():
    st = trajectory_at(np.array([0.0, 2.0]), np.array([1.0, -1.0]), TWO, 1.0)
    snap = snapshot(st, TWO)
    np.testing.assert_allclose(snap.edges[1:], [0.5, 1.5])
    assert snap.density[1] == pytest.approx(1.0)
    np.testing.assert_array_equal(snap.velocity, [0.0, 0.0])


def test_snapshot_support_length_at_least_one():
    rng = np.random.default_rng(1)
    x0, u0, cone = random_admissible_datum(64, rng, contacts=True)
    tl = evolve(x0, u0, cone, 2.0)
    for st in tl.iter_states([0.0, 1.0, 2.0]):
        snap = snapshot(st, cone)
        lo, hi = snap.support
        assert hi - lo >= 1.0 - 1e-9
        assert snap.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert np.max(snap.density) <= 1.0 + 1e-12


def test_pressure_pushforward_support_in_saturated_cells():
    rng = np.random.default_rng(2)
    x0, u0, cone = random_admissible_datum(80, rng)
    tl = evolve(x0, u0, cone, 3.0)
    press = pressure_pushforward(pressure_measure(tl))
    states = {t: st for t, st in zip(
        [a.time for a in press],
        tl.iter_states([a.time for a in press]))}
    assert press
    for atom in press:
        snap = snapshot(states[atom.time], cone)
        assert np.all(atom.lineal_density >= -1e-12)
        rep = complementarity_eulerian(snap, atom)
        assert rep.passed
        np.testing.assert_allclose(atom.x_right - atom.x_left, cone.two_r, rtol=1e-9)


def test_pressure_pushforward_empty():
    tl = evolve(np.array([0.0, 2.0]), np.array([0.1, 0.1]), TWO, 1.0)
    press = pressure_pushforward(pressure_measure(tl))
    assert press == ()


def test_two_particle_atom_lands_on_contact_interval():
    tl = evolve(np.array([0.0, 2.0]), np.array([1.0, -1.0]), TWO, 1.0)
    press = pressure_pushforward(pressure_measure(tl))
    (atom,) = press
    np.testing.assert_allclose([atom.x_left[0], atom.x_right[0]], [0.5, 1.5])
    np.testing.assert_allclose(atom.lineal_density, [0.5])


def test_weak_residual_zero_test_function():
    trace = build_fields(evolve(np.array([0.0, 2.0]), np.array([1.0, -1.0]), TWO, 2.0))
    zero = TestFunction(TimeWindow(1.0), SpaceBump(50.0, 1.0))  # support misses everything
    assert weak_form_of_trace(trace).family_residuals([zero]) == ([0.0], [0.0])


def test_weak_residual_rigid_translation():
    tl = evolve(np.array([0.0, 2.0, 4.0]), np.full(3, 0.6), SpacingCone(3, 1.0), 2.0)
    suite = weak_residual_suite(build_fields(tl))
    assert suite["passed"]
    assert suite["max_abs_residual"] <= 1e-8


def test_weak_momentum_dirac_cancellation_by_hand():
    """The pressure term must cancel the velocity-jump term exactly."""
    tl = evolve(np.array([0.0, 2.0]), np.array([1.0, -1.0]), TWO, 2.0)
    trace = build_fields(tl)
    phi = TestFunction(TimeWindow(1.8), SpaceBump(1.0, 2.0, power=1))
    # hand side 1: jump term -sum (1/n) phi(t*, x_i) du_i at the event
    tstar, x_at = 0.5, np.array([0.5, 1.5])
    du = np.array([-1.0, 1.0])
    jump_term = -float(np.sum(phi(tstar, x_at) * du)) / 2.0
    # hand side 2: Dirac pressure with lineal density 0.5 on (0.5, 1.5)
    press_term = 0.5 * float(phi(tstar, 1.5) - phi(tstar, 0.5))
    assert jump_term + press_term == pytest.approx(0.0, abs=1e-15)
    (mass,), (mom,) = weak_form_of_trace(trace).family_residuals([phi])
    assert abs(mom) <= 1e-8
    assert abs(mass) <= 1e-8


def test_weak_residual_suite_collision_scenarios():
    rng = np.random.default_rng(3)
    x0, u0, cone = random_admissible_datum(50, rng, contacts=True)
    suite = weak_residual_suite(build_fields(evolve(x0, u0, cone, 2.0)))
    assert suite["passed"]
    assert suite["max_abs_residual"] <= 1e-10


def test_complementarity_eulerian_negative_control():
    st = trajectory_at(np.array([0.0, 2.0]), np.array([1.0, -1.0]), TWO, 1.0)
    snap = snapshot(st, TWO)
    tl = evolve(np.array([0.0, 2.0]), np.array([1.0, -1.0]), TWO, 1.0)
    press = pressure_pushforward(pressure_measure(tl))
    (atom,) = press
    assert complementarity_eulerian(snap, atom).passed
    assert complementarity_eulerian(snap, None).passed  # vacuous
    corrupted = EulerianSnapshot(snap.time, snap.edges, snap.density * 0.9,
                                 snap.velocity, snap.two_r)
    assert not complementarity_eulerian(corrupted, atom).passed


def test_oleinik_eulerian_mirrors_microscopic():
    from congested_flow.dynamics import verify_oleinik

    rng = np.random.default_rng(4)
    x0, u0, cone = random_admissible_datum(40, rng)
    tl = evolve(x0, u0, cone, 2.0)
    for st in tl.iter_states([0.5, 1.1, 2.0]):
        snap = snapshot(st, cone)
        rep_e = oleinik_eulerian(snap)
        rep_m = verify_oleinik(st)
        assert rep_e.value == rep_m.value
        assert rep_e.passed
    with pytest.raises(InputDomainError):
        oleinik_eulerian(snapshot(tl.initial, cone))


def test_wasserstein_modulus_degenerate_and_rigid():
    tl = evolve(np.array([0.0, 2.0]), np.full(2, 0.8), TWO, 2.0)
    trace = build_fields(tl)
    rep = wasserstein_time_modulus(trace, 0.7, 0.7)
    assert rep["passed"] and rep["modulus"] == 0.0
    rep = wasserstein_time_modulus(trace, 0.25, 1.75)
    assert rep["passed"]
    assert rep["modulus"] == pytest.approx(1.5 * 0.8, rel=1e-12)
    assert rep["bound"] == pytest.approx(1.5 * 0.8, rel=1e-12)


def test_wasserstein_modulus_random_runs():
    rng = np.random.default_rng(5)
    x0, u0, cone = random_admissible_datum(60, rng, contacts=True)
    trace = build_fields(evolve(x0, u0, cone, 3.0))
    for _ in range(20):
        s, t = np.sort(rng.uniform(0.0, 3.0, 2))
        rep = wasserstein_time_modulus(trace, float(s), float(t))
        assert rep["passed"]


def test_wasserstein_modulus_equals_the_snapshot_list_formula():
    rng = np.random.default_rng(7)
    x0, u0, cone = random_admissible_datum(300, rng, contacts=True)
    trace = build_fields(evolve(x0, u0, cone, 1.0))
    w = trace.w_grid
    ev = [float(te) for te in trace.timeline.times]
    pairs = [(0.0, 1.0), (0.0, ev[0]), (ev[3], ev[40]), (ev[-1], 1.0)]
    pairs += [tuple(float(v) for v in np.sort(rng.uniform(0.0, 1.0, 2))) for _ in range(6)]
    for s, t in pairs:
        snaps = list(trace.iter_snapshots([s] + [te for te in ev if s < te <= t] + [t]))
        modulus = PiecewiseField.from_nodes(w, snaps[-1].x_nodes - snaps[0].x_nodes).l2_norm()
        sup_u = max(sn.velocity_field(w).l2_norm() for sn in snaps[:-1])
        rep = wasserstein_time_modulus(trace, s, t)
        assert (rep["modulus"], rep["bound"], rep["sup_velocity_l2"]) == \
            (modulus, (t - s) * sup_u, sup_u)

def _random_trace_form():
    rng = np.random.default_rng(6)
    x0, u0, cone = random_admissible_datum(40, rng, contacts=True)
    return weak_form_of_trace(build_fields(evolve(x0, u0, cone, 2.0)))


@pytest.mark.parametrize("make_form", [
    _random_trace_form,
    lambda: sticky_solution(0.5).weak_form(1.0),
    lambda: rebound_solution(0.5).weak_form(1.0),
], ids=["discrete", "sticky", "rebound"])
def test_family_residuals_subset_invariant(make_form):
    """A member's residuals do not depend on the rest of the family, bitwise."""
    form = make_form()
    lo, hi = form.spatial_extent()
    fns = build_test_family(lo - 0.1, hi + 0.1, form.horizon)
    mass, mom = form.family_residuals(fns)
    for phi, m, p in zip(fns, mass, mom):
        assert form.family_residuals([phi]) == ([m], [p])


def test_weak_residuals_detect_corrupted_dynamics():
    """Sensitivity control: a wrong velocity or a missing atom must leave a
    visible momentum residual.  The pair merges at t = 0.5 and moves on at
    its mean velocity 0.5."""
    tl = evolve(np.array([0.0, 2.0]), np.array([1.5, -0.5]), TWO, 2.0)
    (event,) = tl.events
    assert (event.time, event.post_velocity) == (0.5, 0.5)
    form = weak_form_of_trace(build_fields(tl))
    lo, hi = form.spatial_extent()
    fns = build_test_family(lo - 0.2, hi + 0.2, form.horizon)
    mass, mom = form.family_residuals(fns)
    assert mass == [0.0] * len(fns) and max(abs(r) for r in mom) <= 1e-12

    def corrupted(**columns):
        bad = dataclasses.replace(tl, **columns)
        return weak_form_of_trace(build_fields(bad)).family_residuals(fns)

    _, mom = corrupted(post=tl.post * 1.1)
    assert max(abs(r) for r in mom) > 1e-3
    # dropping the pressure atom breaks only the momentum balance
    mass, mom = corrupted(jumps=np.zeros_like(tl.jumps))
    assert mass == [0.0] * len(fns)
    assert max(abs(r) for r in mom) > 1e-3


def test_battery_reports_measured_eulerian_values():
    """eulerian_complementarity and eulerian_oleinik report their worst value
    against the tolerance; a corrupted density at one sampled instant (no
    atom there, and the slope bound reads no density) moves neither."""
    x0, u0, cone = random_admissible_datum(200, np.random.default_rng(0), contacts=True)
    trace = build_fields(evolve(x0, u0, cone, 1.0))
    valid = {r.name: r for r in run_battery(trace, np.random.default_rng(1))}
    for name in ("eulerian_complementarity", "eulerian_oleinik"):
        assert valid[name].passed and valid[name].value <= valid[name].tolerance
    assert 0.0 < valid["eulerian_oleinik"].value < 1.0
    bad = {r.name: r for r in run_battery(trace, np.random.default_rng(1),
                                          inject="stale-density")}
    assert [k for k, r in bad.items() if not r.passed] == ["eulerian_reconstruction"]
    for name in ("eulerian_complementarity", "eulerian_oleinik"):
        assert bad[name] == valid[name]
