"""Boundary-term weak residuals against a time quadrature, and what they detect."""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

from congested_flow.cli import load_config
from congested_flow.cone import SpacingCone
from congested_flow.dynamics import evolve
from congested_flow.fields import build_fields
from congested_flow.initdata import quantile_sample
from congested_flow.random_data import random_admissible_datum
from congested_flow.scenarios import rebound_solution, sticky_solution
from congested_flow.testfunctions import TestFunction, build_test_family
from congested_flow.verification import CHECK_NAMES, TOL_WEAK_RESIDUAL, run_battery
from congested_flow.weakform import LagrangianWeakForm, ProfileAtom, weak_form_of_trace

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# -- reference: the space-time integrals by Gauss-Legendre quadrature in t ----
#
# Each trajectory's window is cut at the test functions' time knots and at its
# crossings of the bump support edges, so the integrand is polynomial in t on
# every subwindow; affine data are cut in w where the positions at either end
# of the window cross a knot or the velocity changes sign.  A window is
# (t0, t1, nodes), where nodes(a, b, xknots) gives each trajectory's position
# at time a, its velocity and its mass weight for the subwindow [a, b].

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_WSUB = 8


def _affine_root(w0, w1, f0, f1, target):
    if f1 == f0:
        return None
    w = w0 + (target - f0) * (w1 - w0) / (f1 - f0)
    return float(w) if w0 < w < w1 else None


def _window_start_nodes(seg, a, b, xknots):
    """Per-trajectory (x at time a, v, w-weight) arrays of an affine segment
    for the window [a, b]."""
    xs, vs, ws = [], [], []
    dt_a, dt_b = a - seg.t0, b - seg.t0
    for j in range(seg.wb.size - 1):
        w0, w1 = seg.wb[j], seg.wb[j + 1]
        pa0, pa1 = seg.A0[j] + dt_a * seg.V0[j], seg.A1[j] + dt_a * seg.V1[j]
        pb0, pb1 = seg.A0[j] + dt_b * seg.V0[j], seg.A1[j] + dt_b * seg.V1[j]
        splits = {w0, w1}
        for k in xknots:
            for f0, f1 in ((pa0, pa1), (pb0, pb1)):
                r = _affine_root(w0, w1, f0, f1, k)
                if r is not None:
                    splits.add(r)
        r = _affine_root(w0, w1, seg.V0[j], seg.V1[j], 0.0)
        if r is not None:
            splits.add(r)
        cuts = np.sort(np.fromiter(splits, dtype=float))
        fine = np.unique(np.concatenate(
            [np.linspace(cuts[i], cuts[i + 1], _WSUB + 1) for i in range(cuts.size - 1)]))
        mid_h = (fine[1:] - fine[:-1]) / 2.0
        mid_c = (fine[1:] + fine[:-1]) / 2.0
        wn = (mid_c[:, None] + mid_h[:, None] * _GL_NODES).ravel()
        wt = (mid_h[:, None] * _GL_WEIGHTS).ravel()
        lam = (wn - w0) / (w1 - w0)
        xs.append(pa0 + lam * (pa1 - pa0))
        vs.append(seg.V0[j] + lam * (seg.V1[j] - seg.V0[j]))
        ws.append(wt)
    return np.concatenate(xs), np.concatenate(vs), np.concatenate(ws)


def _time_nodes(a, b, x_a, v, xknots):
    """(t, x, weight) nodes along each trajectory, cut at its knot crossings."""
    k_lo, k_hi = xknots
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = np.where(v != 0.0, a + (k_lo - x_a) / v, a)
        c2 = np.where(v != 0.0, a + (k_hi - x_a) / v, a)
    c1, c2 = np.clip(c1, a, b), np.clip(c2, a, b)
    bounds = np.stack([np.full_like(x_a, a), np.minimum(c1, c2), np.maximum(c1, c2),
                       np.full_like(x_a, b)], axis=1)
    ta = bounds[:, :3, None]
    h = (bounds[:, 1:, None] - ta) / 2.0
    tn = (ta + h * (_GL_NODES + 1.0)).reshape(x_a.size, -1)
    qw = (h * _GL_WEIGHTS).reshape(x_a.size, -1)
    return tn, x_a[:, None] + (tn - a) * v[:, None], qw


def quadrature_residuals(windows, atom_term, phi):
    """Mass and momentum residuals of one phi with the time integrals done by
    quadrature; the initial datum is the first window at t = 0, and
    ``atom_term(phi)`` is the pressure's part of the momentum residual."""
    x, v, w = windows[0][2](0.0, 0.0, phi.x_knots)
    f0 = phi(0.0, x)
    mass, mom = float(w @ f0), float(w @ (f0 * v))
    t_knots = (0.0, phi.support_end)
    for t0, t1, nodes in windows:
        cuts = sorted({t0, t1} | {k for k in t_knots if t0 < k < t1})
        for a, b in zip(cuts, cuts[1:]):
            x, v, w = nodes(a, b, phi.x_knots)
            tn, xn, qw = _time_nodes(a, b, x, v, phi.x_knots)
            g = np.sum((phi.dt(tn, xn) + v[:, None] * phi.dx(tn, xn)) * qw, axis=1)
            mass += float(w @ g)
            mom += float(w @ (g * v))
    return mass, mom + atom_term(phi)


def closed_form_reference(form):
    """Windows and atom term of a closed-form weak form, from its segments."""
    windows = [(s.t0, s.t1, functools.partial(_window_start_nodes, s)) for s in form.segments]
    return windows, lambda phi: sum(form._profile_atom_term(phi, a) for a in form.atoms)


def discrete_reference(tl):
    """Windows and atom term of a discrete run: one window per gap between
    distinct event instants, starting from the timeline's state there, and
    one atom per event on its own positions."""
    cuts = sorted({0.0, tl.horizon} | set(tl.times.tolist()))
    weights = np.full(tl.n, 1.0 / tl.n)

    def nodes(st):
        return lambda a, b, xknots: (st.positions + (a - st.time) * st.velocities,
                                     st.velocities, weights)

    windows = [(a, b, nodes(st)) for a, b, st in zip(cuts, cuts[1:], tl.iter_states(cuts))]
    two_r = tl.cone.two_r

    def atom_term(phi):
        return sum(float(e.jump_values @ np.diff(
            phi(e.time, e.x_left + two_r * np.arange(e.jump_values.size + 1)))) for e in tl.events)

    return windows, atom_term


def _family(form, pad=0.1):
    lo, hi = form.spatial_extent()
    return build_test_family(lo - pad, hi + pad, form.horizon)


# -- small discrete traces and both closed-form branches ----------------------

def _random_contacts():
    x0, u0, cone = random_admissible_datum(64, np.random.default_rng(7), contacts=True)
    return evolve(x0, u0, cone, 1.0)


def _cascade():
    datum = load_config(str(CONFIGS / "smooth_compression.json"))["_datum"]
    x0, u0, cone = quantile_sample(datum, 64)
    return evolve(x0, u0, cone, 1.0)


def _near_tie_pileup():
    rng = np.random.default_rng(23)
    n = 64
    cone = SpacingCone.canonical(n)
    gaps = cone.two_r * (2.0 + 1e-8 * rng.random(n - 1))
    x0 = np.concatenate(([0.0], np.cumsum(gaps)))
    u0 = 1.0 - 2.0 * np.arange(n) / n + 1e-9 * rng.normal(size=n)
    return evolve(x0, u0, cone, 2.0)


DISCRETE = {"random_contacts": _random_contacts, "cascade": _cascade,
            "near_tie_pileup": _near_tie_pileup}


@pytest.mark.parametrize("make", DISCRETE.values(), ids=DISCRETE.keys())
def test_boundary_terms_match_time_quadrature_discrete(make):
    tl = make()
    assert tl.events
    form = weak_form_of_trace(build_fields(tl))
    fns = _family(form)
    mass, mom = form.family_residuals(fns)
    windows, atom_term = discrete_reference(tl)
    for phi, m, p in zip(fns, mass, mom):
        ref_m, ref_p = quadrature_residuals(windows, atom_term, phi)
        assert abs(m - ref_m) <= 1e-14
        assert abs(p - ref_p) <= 1e-14


@pytest.mark.parametrize("horizon", [1.0, 2.0])
@pytest.mark.parametrize("eta", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("make", [sticky_solution, rebound_solution],
                         ids=["sticky", "rebound"])
def test_boundary_terms_match_time_quadrature_closed_form(make, eta, horizon):
    form = make(eta).weak_form(horizon)
    fns = _family(form)
    mass, mom = form.family_residuals(fns)
    windows, atom_term = closed_form_reference(form)
    for phi, m, p in zip(fns, mass, mom):
        ref_m, ref_p = quadrature_residuals(windows, atom_term, phi)
        assert abs(m - ref_m) <= 1e-14
        assert abs(p - ref_p) <= 1e-14


def full_scan_extent(form):
    """Smallest and largest entry of every segment's positions at both ends."""
    lo, hi = np.inf, -np.inf
    for s in form.segments:
        dt = s.t1 - s.t0
        for arr in (s.A0, s.A1, s.A0 + dt * s.V0, s.A1 + dt * s.V1):
            lo = min(lo, float(np.min(arr)))
            hi = max(hi, float(np.max(arr)))
    return lo, hi


def state_scan_extent(tl):
    """Smallest and largest position of the timeline's states at t = 0, at
    every event instant and at the horizon."""
    times = [0.0] + tl.times.tolist() + [tl.horizon]
    xs = [st.positions for st in tl.iter_states(times)]
    return min(float(np.min(x)) for x in xs), max(float(np.max(x)) for x in xs)


def test_spatial_extent_equals_full_scan():
    for make in DISCRETE.values():
        tl = make()
        extent = np.array(weak_form_of_trace(build_fields(tl)).spatial_extent())
        assert extent.tobytes() == np.array(state_scan_extent(tl)).tobytes()
    forms = [make(eta).weak_form(horizon) for make in (sticky_solution, rebound_solution)
             for eta in (0.3, 0.5, 0.9) for horizon in (1.0, 2.0)]
    for form in forms:
        extent = np.array(form.spatial_extent())
        assert extent.tobytes() == np.array(full_scan_extent(form)).tobytes()


def test_closed_form_without_its_atom_fails_momentum():
    form = sticky_solution(0.5).weak_form(1.0)
    assert any(isinstance(a, ProfileAtom) for a in form.atoms)
    _, mom = LagrangianWeakForm(form.segments, []).family_residuals(_family(form))
    assert max(abs(r) for r in mom) > TOL_WEAK_RESIDUAL


# -- negative controls ------------------------------------------------------

@pytest.mark.parametrize("make", DISCRETE.values(), ids=DISCRETE.keys())
def test_valid_discrete_trace_mass_residuals_exactly_zero(make):
    form = weak_form_of_trace(build_fields(make()))
    mass, _ = form.family_residuals(_family(form))
    assert mass == [0.0] * 12


def test_shifted_event_position_fails_momentum():
    # the widest event's left edge moves by 1e-3 below the constructor; its
    # positions and the trajectories' left limits then disagree.  With one
    # set of positions in both the velocity-jump and the atom term, summation
    # by parts would cancel them and the fault would pass
    x0, u0, cone = random_admissible_datum(200, np.random.default_rng(5), contacts=True)
    tl = evolve(x0, u0, cone, 1.0)
    k = max(range(len(tl.events)), key=lambda k: np.ptp(tl.events[k].index_range))
    x_left = tl.x_left.copy()
    x_left[k] += 1e-3
    trace = build_fields(dataclasses.replace(tl, x_left=x_left))
    form = weak_form_of_trace(trace)
    _, mom = form.family_residuals(_family(form))
    assert max(abs(r) for r in mom) > TOL_WEAK_RESIDUAL
    reports = run_battery(trace)
    assert [r.name for r in reports if not r.passed] == ["semigroup", "weak_residuals"]
    assert reports[CHECK_NAMES.index("weak_residuals")].value > TOL_WEAK_RESIDUAL


def test_perturbed_post_velocity_fails_momentum():
    tl = _random_contacts()
    # the widest merge well inside the test functions' time support
    early = [j for j, e in enumerate(tl.events) if e.time < 0.5 * tl.horizon]
    k = max(early, key=lambda j: np.ptp(tl.events[j].index_range))
    post = tl.post.copy()
    post[k] += 1e-3
    form = weak_form_of_trace(build_fields(dataclasses.replace(tl, post=post)))
    mass, mom = form.family_residuals(_family(form))
    assert mass == [0.0] * 12
    assert max(abs(r) for r in mom) > TOL_WEAK_RESIDUAL


# -- work: phi is evaluated only where an event changed the data ---------------

@dataclasses.dataclass(eq=False)
class CountingFactor:
    """Time window or spatial bump wrapper counting the points it is evaluated at."""

    factor: object
    points: list

    def __call__(self, z):
        self.points[0] += np.size(z)
        return self.factor(z)

    def __getattr__(self, name):  # the window's tau, the bump's knots
        return getattr(self.factor, name)


def test_evaluations_linear_in_particles_plus_merged_ranges():
    n = 400
    x0, u0, cone = random_admissible_datum(n, np.random.default_rng(0), contacts=True)
    tl = evolve(x0, u0, cone, 1.0)
    merged = sum(hi - lo + 1 for lo, hi in (e.index_range for e in tl.events))
    form = weak_form_of_trace(build_fields(tl))
    fns = _family(form)
    points = [0]
    windows, bumps = {phi.window for phi in fns}, {phi.bump for phi in fns}
    counting = {f: CountingFactor(f, points) for f in windows | bumps}
    counted = form.family_residuals([TestFunction(counting[phi.window], counting[phi.bump])
                                     for phi in fns])
    assert counted == form.family_residuals(fns)
    assert len(tl.events) > n // 2
    assert points[0] <= 12 * 4 * (n + merged)
    # each window once on the event times, each bump once on x and once on x_pre
    rec = form.record
    assert (len(windows), len(bumps)) == (2, 6)
    assert points[0] == 2 * rec.sizes.sum() + 6 * (rec.x.size + rec.x_pre.size)
