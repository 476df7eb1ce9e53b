"""Acceptance gate: one test per criterion, tolerances pinned as specified.

Run with ``pytest -v tests/test_acceptance.py`` to get one line per
criterion; each test also prints its measured values.
"""

import time

import numpy as np

from congested_flow.cone import SpacingCone, project_onto_cone, qp_oracle_project_many
from congested_flow.dynamics import evolve, trajectory_at
from congested_flow.eulerian import (
    complementarity_eulerian,
    pressure_pushforward,
    snapshot,
    weak_residual_suite,
)
from congested_flow.fields import build_fields, convergence_study
from congested_flow.initdata import datum_from_eulerian, quantile_sample
from congested_flow.dynamics import pressure_measure
from congested_flow.piecewise import PiecewiseField
from congested_flow.random_data import random_admissible_datum, random_projection_input
from congested_flow.scenarios import (
    first_order_contraction_test,
    rebound_solution,
    selection_test,
    sticky_solution,
    two_block_datum,
)
from congested_flow.testfunctions import build_test_family
from congested_flow.verification import run_battery

PASS = "ACCEPTANCE {k}: PASS - {msg}"


def smooth_datum():
    """Half-density slab on [0, 2] compressed by u(x) = -x + 1."""
    vel = PiecewiseField(np.array([-10.0, 10.0]), np.array([11.0]), np.array([-9.0]))
    return datum_from_eulerian([(0.0, 2.0, 0.5)], vel)


def battery_runs():
    runs = []
    for name, datum, n in (("two_block", two_block_datum(0.5), 256),
                           ("smooth", smooth_datum(), 256)):
        x0, u0, cone = quantile_sample(datum, n)
        runs.append((name, build_fields(evolve(x0, u0, cone, 1.0))))
    rng = np.random.default_rng(100)
    x0, u0, cone = random_admissible_datum(300, rng, contacts=True)
    runs.append(("random_contacts", build_fields(evolve(x0, u0, cone, 2.0))))
    return runs


def test_criterion_1_projection_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_x = 0.0
    worst_lam = 0.0
    worst_compl = 0.0
    for n in range(2, 13):
        cone = SpacingCone.canonical(n)
        ys = rng.normal(0.0, 2.0 / n, (1000, n)) + np.arange(n) * (0.5 / n)
        ref = qp_oracle_project_many(cone, ys)
        xs = np.empty_like(ys)
        for row in range(1000):
            xs[row] = project_onto_cone(cone, ys[row])
        worst_x = max(worst_x, float(np.max(np.abs(xs - ref))))
        # unscaled stationarity multipliers of every instance
        lam = np.cumsum(ys - xs, axis=1)
        slack = (xs[:, 1:] - xs[:, :-1]) - cone.two_r
        worst_lam = max(worst_lam, -float(np.min(lam[:, :-1])))
        worst_compl = max(worst_compl, float(np.max(np.abs(lam[:, :-1] * slack))))
    elapsed = time.perf_counter() - t0
    assert worst_x <= 1e-9
    assert worst_lam <= 1e-12
    assert worst_compl <= 1e-10
    assert elapsed < 30.0
    print(PASS.format(k=1, msg=f"11000 instances, max dev {worst_x:.2e}, "
                               f"min lam {-worst_lam:.2e}, compl {worst_compl:.2e}, "
                               f"{elapsed:.1f}s"))


def test_criterion_2_dynamics_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    sizes = [10] * 20 + [100] * 15 + [1000] * 10 + [10000] * 5
    worst = 0.0
    for k, n in enumerate(sizes):
        x0, u0, cone = random_admissible_datum(n, rng, contacts=bool(k % 2))
        horizon = 2.0
        tl = evolve(x0, u0, cone, horizon)
        times = np.sort(rng.uniform(0.0, horizon, 200))
        for t, st in zip(times, tl.iter_states(times)):
            ref = trajectory_at(x0, u0, cone, float(t))
            worst = max(worst, float(np.max(np.abs(ref.positions - st.positions))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(PASS.format(k=2, msg=f"50 data, 200 times each, max pos dev {worst:.2e}, "
                               f"{elapsed:.1f}s"))


def test_criterion_3_invariant_battery():
    from congested_flow.verification import (
        TOL_COMPLEMENTARITY, TOL_MOMENTUM_PER_N, TOL_SEMIGROUP,
    )

    assert TOL_COMPLEMENTARITY == 1e-10
    assert TOL_SEMIGROUP == 1e-9
    assert TOL_MOMENTUM_PER_N == 1e-12
    for name, trace in battery_runs():
        reports = run_battery(trace, np.random.default_rng(5))
        assert len(reports) == 13
        failed = [r.name for r in reports if not r.passed]
        assert not failed, f"{name}: {failed}"
        # lambda_n == 0 and min lambda >= -1e-12 at sampled states
        tl = trace.timeline
        from congested_flow.dynamics import multipliers_at

        for st in tl.iter_states(np.linspace(0.0, tl.horizon, 9)):
            lam = multipliers_at(st, tl.u0).lambdas
            assert lam[-1] == 0.0
            assert float(lam.min()) >= -1e-12
    print(PASS.format(k=3, msg="battery green on two_block, smooth, random_contacts"))


def test_criterion_4_two_block_collision_quantitative():
    n = 1024
    rep = selection_test(0.5, n)
    trace = rep.pop("trace")
    rep.pop("timeline")
    assert abs(rep["final_merge_time"] - 0.25) <= 5e-3
    assert abs(rep["final_merge_time"] - 0.25) <= 1e-12  # exact event arithmetic
    assert rep["max_post_collision_speed"] <= 1e-12
    mass = sum(float(dlam.sum()) / n for _, dlam in trace.atoms)
    assert abs(mass - 0.25) <= 2.0 / n
    sticky = sticky_solution(0.5)
    _, dlam = trace.atoms[-1]
    simulated = PiecewiseField.from_nodes(trace.w_grid, dlam)
    analytic = PiecewiseField.from_nodes(np.array([0.0, 0.5, 1.0]),
                                         np.array([0.0, 0.5, 0.0]))
    l1 = simulated.distance(analytic, "L1")
    assert l1 <= 4.0 / n
    print(PASS.format(k=4, msg=f"merge at {rep['final_merge_time']!r}, "
                               f"atom mass {mass:.6f}, profile L1 {l1:.2e}"))


def test_criterion_5_non_uniqueness_demonstration():
    eta = 0.5
    horizon = 1.0
    worst = 0.0
    for sol in (sticky_solution(eta), rebound_solution(eta)):
        form = sol.weak_form(horizon)
        lo, hi = form.spatial_extent()
        fns = build_test_family(lo - 0.1, hi + 0.1, horizon)
        mass, mom = form.family_residuals(fns)
        worst = max(worst, max(abs(r) for r in mass))
        worst = max(worst, max(abs(r) for r in mom))
        assert sol.profile_min() >= 0.0
        assert sol.complementarity_max() <= 1e-12
        for t in np.linspace(0.05, horizon, 9):
            assert sol.oleinik_ratio(float(t)) < 1.0
    assert worst <= 1e-8
    rep = selection_test(eta, 64)
    rep.pop("trace")
    rep.pop("timeline")
    assert rep["min_rebound_distance"] > 0.5 * np.sqrt(1.0 / 3.0)
    assert rep["min_rebound_distance"] > 0.289
    assert rep["max_sticky_distance"] <= 1e-10
    print(PASS.format(k=5, msg=f"branch residuals {worst:.2e}, rebound distance "
                               f"{rep['min_rebound_distance']:.3f} > 0.289, "
                               f"sticky distance {rep['max_sticky_distance']:.2e}"))


def test_criterion_6_eulerian_reconstruction():
    worst_resid = 0.0
    for name, trace in battery_runs():
        tl = trace.timeline
        measure = pressure_measure(tl)
        atoms = {a.time: a for a in pressure_pushforward(measure, trace).atoms}
        times = sorted(set(np.linspace(0.0, tl.horizon, 9)) | set(atoms))
        for st in tl.iter_states(times):
            snap = snapshot(st, tl.cone, trace.padding)
            assert abs(snap.total_mass() - 1.0) <= 1e-12
            assert np.all(snap.density >= 0.0)
            assert np.all(snap.density <= 1.0 + 1e-12)
            gaps = np.diff(snap.edges)[1:]
            contact = np.abs(gaps - tl.cone.two_r) <= 1e-12 * (
                1.0 + np.abs(snap.edges).max())
            if np.any(contact):
                assert np.max(np.abs(snap.density[1:][contact] - 1.0)) <= 1e-12
            atom = atoms.get(st.time)
            if atom is not None:
                assert complementarity_eulerian(snap, atom).passed
        suite = weak_residual_suite(trace)
        assert suite["count"] == 12
        assert suite["max_abs_residual"] <= 1e-8
        worst_resid = max(worst_resid, suite["max_abs_residual"])
    print(PASS.format(k=6, msg=f"snapshots exact, weak residuals <= {worst_resid:.2e}"))


def test_criterion_7_self_convergence():
    t0 = time.perf_counter()
    times = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    summary = {}
    for name, datum in (("two_block", two_block_datum(0.5)), ("smooth", smooth_datum())):
        study = convergence_study(datum, [64, 128, 256, 512, 1024, 4096], 1.0, times)
        sups = [study["sup"][n]["X"] for n in (64, 128, 256, 512, 1024)]
        assert all(b < a for a, b in zip(sups, sups[1:])), f"{name}: {sups}"
        masses = [study["sup"][n]["pressure_mass"]
                  for n in (64, 128, 256, 512, 1024, 4096)]
        assert max(masses) / min(masses) <= 2.0
        summary[name] = (sups[0], sups[-1], max(masses) / min(masses))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(PASS.format(k=7, msg=f"monotone sup-distances {summary}, {elapsed:.1f}s"))


def test_criterion_8_contraction_uniqueness():
    rng = np.random.default_rng(8008)
    worst = 0.0
    for _ in range(100):
        x0, u0, cone = random_admissible_datum(100, rng)
        pert = 1e-4 * rng.normal(size=100)
        rep = first_order_contraction_test(x0, u0, cone, pert, 2.0, tol=1e-12)
        assert rep["passed"]
        worst = max(worst, rep["max_increment"])
    print(PASS.format(k=8, msg=f"100 perturbation pairs, max distance increment "
                               f"{worst:.2e} <= 1e-12"))


def test_criterion_9_performance():
    rng = np.random.default_rng(9009)
    timings = []
    for n in (10_000, 100_000, 1_000_000):
        cone, y = random_projection_input(n, rng)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            project_onto_cone(cone, y)
            best = min(best, time.perf_counter() - t0)
        timings.append((n, best))
    for (n0, p0), (n1, p1) in zip(timings, timings[1:]):
        growth = (p1 / p0) / (n1 / n0)
        assert growth <= 1.5, f"projection ratio {growth:.2f}x linear at n={n1}"
    t0 = time.perf_counter()
    datum = two_block_datum(0.5)
    x0, u0, cone = quantile_sample(datum, 10_000)
    trace = build_fields(evolve(x0, u0, cone, 1.0))
    reports = run_battery(trace, np.random.default_rng(0))
    pipeline = time.perf_counter() - t0
    assert all(r.passed for r in reports)
    assert pipeline < 5.0
    print(PASS.format(k=9, msg=f"projection {[f'{n}:{p:.3f}s' for n, p in timings]}, "
                               f"pipeline n=1e4 in {pipeline:.2f}s"))
