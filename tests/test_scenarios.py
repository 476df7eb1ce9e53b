"""Two-block collision, both continuations, selection and contraction."""

import numpy as np
import pytest

from congested_flow.errors import InputDomainError
from congested_flow.initdata import quantile_sample
from congested_flow.piecewise import PiecewiseField
from congested_flow.random_data import random_admissible_datum
from congested_flow.scenarios import (
    first_order_contraction_test,
    macroscopic_projection,
    rebound_solution,
    selection_test,
    sticky_solution,
    two_block_datum,
)
from congested_flow.testfunctions import build_test_family


def test_two_block_datum_geometry():
    datum = two_block_datum(0.5)
    assert datum.support == (0.0, 1.5)
    x0, u0, cone = quantile_sample(datum, 8)
    np.testing.assert_allclose(
        x0, [0.125, 0.25, 0.375, 0.5, 1.125, 1.25, 1.375, 1.5])
    np.testing.assert_array_equal(u0, [1.0] * 4 + [-1.0] * 4)
    gaps = np.diff(x0)
    assert np.all(np.abs(np.delete(gaps, 3) - cone.two_r) < 1e-15)
    assert gaps[3] == pytest.approx(0.5 + cone.two_r)


def test_two_block_datum_domain_guard():
    for eta in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(InputDomainError):
            two_block_datum(eta)


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.9])
def test_both_branches_weakly_admissible(eta):
    horizon = eta + 0.6
    for sol in (sticky_solution(eta), rebound_solution(eta)):
        form = sol.weak_form(horizon)
        lo, hi = form.spatial_extent()
        fns = build_test_family(lo - 0.1, hi + 0.1, horizon)
        assert len(fns) == 12
        mass, mom = form.family_residuals(fns)
        worst = max(max(abs(r) for r in mass), max(abs(r) for r in mom))
        assert worst <= 1e-8
        assert sol.profile_min() >= 0.0
        assert sol.complementarity_max() <= 1e-15
        for t in np.linspace(0.05, horizon, 7):
            assert sol.oleinik_ratio(float(t)) < 1.0


def test_sticky_branch_values():
    sol = sticky_solution(0.5)
    assert sol.tstar == 0.25
    # velocity vanishes after the collision
    assert sol.velocity_field(0.3).linf_norm() == 0.0
    # tent profile from the momentum balance
    assert sol.atom_profile(0.5) == pytest.approx(0.5)
    np.testing.assert_allclose(sol.atom_profile(np.array([0.0, 0.25, 0.75, 1.0])),
                               [0.0, 0.25, 0.25, 0.0])
    # integral 1/4 (atom mass)
    w = np.linspace(0, 1, 100001)
    assert np.trapezoid(sol.atom_profile(w), w) == pytest.approx(0.25, abs=1e-8)


def test_rebound_branch_values():
    sol = rebound_solution(0.5)
    assert sol.atom_profile(0.5) == pytest.approx(0.75)
    assert sol.atom_profile(0.25) == pytest.approx(2 * 0.25 - 0.25 ** 2)
    # velocity slope 2 against position slope 1 + 2(t - t*)
    t = 0.8
    X = sol.position_field(t)
    U = sol.velocity_field(t)
    assert U.slopes()[0] == pytest.approx(2.0)
    assert X.slopes()[0] == pytest.approx(1.0 + 2.0 * (t - 0.25))
    assert sol.oleinik_ratio(t) == pytest.approx(2.0 * t / (1.0 + 2.0 * (t - 0.25)))


def test_momentum_balance_derives_both_profiles():
    """Finite-difference check: profile' = -(post - pre) velocity jump."""
    for sol in (sticky_solution(0.4), rebound_solution(0.4)):
        w = np.linspace(1e-4, 1.0 - 1e-4, 2001)
        dw = w[1] - w[0]
        prof = sol.atom_profile(w)
        dprof = np.gradient(prof, dw)
        u_pre = np.where(w < 0.5, 1.0, -1.0)
        u_post = np.zeros_like(w) if sol.branch == "sticky" else 2.0 * w - 1.0
        interior = np.abs(w - 0.5) > 2 * dw
        np.testing.assert_allclose(dprof[interior], -(u_post - u_pre)[interior],
                                   atol=1e-3)


def test_selection_picks_sticky_branch():
    rep = selection_test(0.5, 64)
    assert rep["passed"]
    assert rep["final_merge_time"] == pytest.approx(0.25, abs=1e-12)
    assert rep["max_post_collision_speed"] <= 1e-12
    assert rep["min_rebound_distance"] >= 0.5 * rep["rebound_norm"]
    assert rep["min_rebound_distance"] == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-9)
    assert rep["max_sticky_distance"] <= 1e-10
    assert rep["max_projection_error"] <= 1e-12


def test_selection_other_gap():
    rep = selection_test(0.9, 32)
    assert rep["passed"]
    assert rep["final_merge_time"] == pytest.approx(0.45, abs=1e-12)


def test_selection_requires_even_split():
    with pytest.raises(InputDomainError):
        selection_test(0.5, 63)


def test_macroscopic_projection_identity_without_saturation():
    x = PiecewiseField.from_nodes(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    u = PiecewiseField.constant(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
    out = macroscopic_projection(x, u)
    assert out.distance(u, "Linf") == 0.0


def test_macroscopic_projection_fully_saturated_global_mean():
    x = PiecewiseField.from_nodes(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    u = PiecewiseField.constant(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
    out = macroscopic_projection(x, u)
    np.testing.assert_allclose(out.left, 0.0, atol=1e-15)
    np.testing.assert_allclose(out.right, 0.0, atol=1e-15)


def test_macroscopic_projection_two_block_post_merge_zero():
    sol = sticky_solution(0.5)
    x = sol.position_field(0.6)
    u0 = PiecewiseField.constant(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
    out = macroscopic_projection(x, u0)
    assert out.linf_norm() <= 1e-15


@pytest.mark.parametrize("closure", [False, True])
@pytest.mark.parametrize("position", ["datum", "sticky_before_collision"])
def test_macroscopic_projection_keeps_blocks_apart_across_a_vacuum_gap(position, closure):
    # two saturated pieces that touch in w but jump in X are two components
    datum = two_block_datum(0.5)
    x = datum.x0_map if position == "datum" else sticky_solution(0.5).position_field(0.1)
    out = macroscopic_projection(x, datum.u0_map, cluster_closure=closure)
    np.testing.assert_array_equal(out.left, [1.0, -1.0])
    np.testing.assert_array_equal(out.right, [1.0, -1.0])


def test_contraction_zero_perturbation():
    rng = np.random.default_rng(7)
    x0, u0, cone = random_admissible_datum(30, rng)
    rep = first_order_contraction_test(x0, u0, cone, np.zeros(30), 2.0)
    assert rep["passed"]
    assert rep["initial_distance"] == 0.0 and rep["final_distance"] == 0.0


def test_contraction_single_particle_shift():
    rng = np.random.default_rng(8)
    x0, u0, cone = random_admissible_datum(20, rng, gap_scale=0.5)
    pert = np.zeros(20)
    pert[10] = 1e-3
    rep = first_order_contraction_test(x0, u0, cone, pert, 3.0)
    assert rep["passed"]
    assert rep["initial_distance"] == pytest.approx(1e-3 / np.sqrt(20), rel=1e-9)
    assert rep["final_distance"] <= rep["initial_distance"] + 1e-15


def test_contraction_random_sweep():
    rng = np.random.default_rng(9)
    for k in range(25):
        x0, u0, cone = random_admissible_datum(100, rng)
        pert = 1e-5 * rng.normal(size=100)
        rep = first_order_contraction_test(x0, u0, cone, pert, 2.0)
        assert rep["passed"], rep


def test_simulated_positions_converge_to_sticky_branch_only():
    """Positional selection: distance to the frozen branch shrinks with n,
    distance to the rebound branch stays above a fixed floor past t*."""
    from congested_flow.dynamics import evolve
    from congested_flow.fields import build_fields

    eta, horizon = 0.5, 1.0
    sticky = sticky_solution(eta)
    rebound = rebound_solution(eta)
    times = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    sup_sticky = []
    min_rebound = []
    for n in (32, 64, 128, 256):
        x0, u0, cone = quantile_sample(two_block_datum(eta), n)
        trace = build_fields(evolve(x0, u0, cone, horizon))
        sup_d = 0.0
        min_r = np.inf
        for snap in trace.iter_snapshots(times):
            x_aff = PiecewiseField.from_nodes(trace.w_grid, snap.x_nodes)
            sup_d = max(sup_d, x_aff.distance(sticky.position_field(snap.time), "L2"))
            if snap.time > eta / 2.0:
                min_r = min(min_r, x_aff.distance(
                    rebound.position_field(snap.time), "L2"))
        sup_sticky.append(sup_d)
        min_rebound.append(min_r)
    assert all(b < a for a, b in zip(sup_sticky, sup_sticky[1:])), sup_sticky
    # the branches drift apart at rate ||2w-1||, so the minimum over the
    # sampled window sits at the earliest post-collision instant
    t_first = min(t for t in times if t > eta / 2.0)
    floor = 0.9 * np.sqrt(1.0 / 3.0) * (t_first - eta / 2.0)
    assert all(r >= floor for r in min_rebound), (min_rebound, floor)
