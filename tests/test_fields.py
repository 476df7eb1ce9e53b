"""Lagrangian interpolations, exact norms, discrete-system residuals."""

import tracemalloc

import numpy as np
import pytest

from congested_flow.cone import SpacingCone
from congested_flow.dynamics import evolve, pressure_measure
from congested_flow.errors import InputDomainError
from congested_flow.eulerian import pressure_pushforward
from congested_flow.fields import (
    DeltaPadding,
    build_fields,
    convergence_study,
    oleinik_field_check,
    pressure_mass_bound,
    verify_discrete_pde,
)
from congested_flow.initdata import MacroscopicDatum, rearrangement_from_density
from congested_flow.piecewise import PiecewiseField
from congested_flow.random_data import random_admissible_datum
from congested_flow.scenarios import two_block_datum

TWO = SpacingCone(2, 1.0)


def two_particle_trace(horizon=2.0):
    return build_fields(evolve(np.array([0.0, 2.0]), np.array([1.0, -1.0]), TWO, horizon))


def riemann_norm(field, which, panels=400_000):
    """Sampling-quadrature oracle for the exact per-cell norms."""
    w = np.linspace(field.breaks[0], field.breaks[-1], panels, endpoint=False)
    w = w + (field.breaks[-1] - field.breaks[0]) / panels / 2.0
    v = field(w)
    h = (field.breaks[-1] - field.breaks[0]) / panels
    if which == "L1":
        return float(np.sum(np.abs(v)) * h)
    if which == "L2":
        return float(np.sqrt(np.sum(v * v) * h))
    raise ValueError(which)


def test_position_step_function_after_merge():
    trace = two_particle_trace()
    xf = trace.position_field(1.0, kind="pc")
    np.testing.assert_allclose(xf.left, [0.5, 1.5])
    np.testing.assert_array_equal(xf.left, xf.right)


def test_rigid_translation_zero_multipliers():
    tl = evolve(np.array([0.0, 2.0]), np.array([0.4, 0.4]), TWO, 2.0)
    trace = build_fields(tl)
    lam = trace.multiplier_field(1.5, kind="affine")
    assert lam.linf_norm() == 0.0
    assert pressure_mass_bound(trace) == 0.0


def test_affine_slope_bounded_below():
    rng = np.random.default_rng(2)
    x0, u0, cone = random_admissible_datum(60, rng, contacts=True)
    trace = build_fields(evolve(x0, u0, cone, 2.0))
    for t in (0.0, 0.7, 2.0):
        xf = trace.position_field(t, kind="affine")
        assert np.all(xf.slopes() >= trace.slope_min * (1.0 - 1e-12))


def test_padding_must_be_positive():
    with pytest.raises(InputDomainError):
        DeltaPadding(0.0)


def test_field_norms_trivial_cases():
    const = PiecewiseField.constant(np.array([0.0, 1.0]), np.array([-3.0]))
    assert const.norm("L2") == 3.0
    assert const.norm("BV") == 0.0
    ident = PiecewiseField.from_nodes(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert ident.norm("BV") == 1.0


def test_field_norms_against_riemann_oracle():
    rng = np.random.default_rng(3)
    breaks = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 6))))
    field = PiecewiseField(breaks, rng.normal(size=7), rng.normal(size=7))
    for which in ("L1", "L2"):
        assert field.norm(which) == pytest.approx(riemann_norm(field, which), abs=1e-5)
    # exactness well below sampling error is covered by the closed forms
    single = PiecewiseField(np.array([0.0, 1.0]), np.array([-1.0]), np.array([2.0]))
    assert single.norm("L2") == pytest.approx(np.sqrt(1.0), rel=1e-14)
    assert single.norm("L1") == pytest.approx(5.0 / 6.0, rel=1e-14)


def test_bv_of_affine_position_is_spread():
    trace = two_particle_trace()
    for t in (0.0, 0.6, 1.4):
        snap = trace.snapshot(t)
        xf = trace.position_field(t, kind="affine")
        assert xf.bv() == pytest.approx(snap.x_nodes[-1] - snap.x_nodes[0], rel=1e-14)


def test_pc_vs_affine_l1_identity():
    # the two interpolants differ by exactly spread / (2 n) in L1
    rng = np.random.default_rng(4)
    x0, u0, cone = random_admissible_datum(37, rng)
    trace = build_fields(evolve(x0, u0, cone, 1.5))
    for t in (0.0, 0.8, 1.5):
        snap = trace.snapshot(t)
        d = trace.position_field(t, "pc").distance(trace.position_field(t, "affine"), "L1")
        expected = (snap.x_nodes[-1] - snap.x_nodes[0]) / (2.0 * trace.n)
        assert d == pytest.approx(expected, rel=1e-12)


def test_pc_vs_affine_multiplier_sup_bound():
    trace = two_particle_trace()
    for t in (0.6, 1.2):
        snap = trace.snapshot(t)
        d = trace.multiplier_field(t, "pc").distance(trace.multiplier_field(t, "affine"),
                                                     "Linf")
        assert d <= np.max(np.abs(np.diff(snap.lam))) + 1e-15


def test_discrete_pde_free_flight_trivial():
    tl = evolve(np.array([0.0, 3.0]), np.array([0.2, 0.4]), TWO, 1.0)
    rep = verify_discrete_pde(build_fields(tl))
    assert rep["passed"]
    assert rep["order1_max_residual"] == 0.0


def test_discrete_pde_two_particle_balance():
    rep = verify_discrete_pde(two_particle_trace())
    assert rep["passed"]
    assert rep["order2_max_residual"] <= 1e-12


def test_discrete_pde_random_run():
    rng = np.random.default_rng(5)
    x0, u0, cone = random_admissible_datum(200, rng, contacts=True)
    rep = verify_discrete_pde(build_fields(evolve(x0, u0, cone, 2.0)))
    assert rep["passed"]
    assert max(rep["order1_max_residual"], rep["order2_max_residual"]) <= 1e-10


# bytes per particle and per merged-range entry that the pressure stages may hold
BYTES_PER_UNIT = 256


def random_contacts_run(n):
    x0, u0, cone = random_admissible_datum(n, np.random.default_rng(0), contacts=True)
    tl = evolve(x0, u0, cone, 1.0)
    merged = sum(hi + 1 - lo for lo, hi in (e.index_range for e in tl.events))
    return tl, n + merged


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pressure_storage_is_linear_in_n_plus_merged_size():
    # storing n + 1 floats per event, or a full state per event, costs
    # n * events and overshoots the bound by an order of magnitude here
    def lift(tl):
        pressure_pushforward(pressure_measure(tl), build_fields(tl))

    lift(random_contacts_run(50)[0])  # one-time allocations stay unmeasured
    tl, units = random_contacts_run(2000)
    assert len(tl.events) > 1000
    assert traced_peak(lambda: lift(tl)) <= BYTES_PER_UNIT * units
    tl, units = random_contacts_run(500)
    trace = build_fields(tl)
    assert traced_peak(lambda: verify_discrete_pde(trace)) <= BYTES_PER_UNIT * units


def test_oleinik_field_post_merge_and_l1_bound():
    trace = two_particle_trace()
    rep = oleinik_field_check(trace, 1.0)
    assert rep["passed"] and rep["max_ratio"] == 0.0
    rep = oleinik_field_check(trace, 0.25)
    # the interior slope is negative; the padding cell contributes zero
    assert rep["passed"] and rep["max_ratio"] == 0.0
    assert rep["gradient_l1"] == pytest.approx(2.0)
    assert rep["gradient_l1"] <= rep["gradient_l1_bound"]
    with pytest.raises(InputDomainError):
        oleinik_field_check(trace, 0.0)


def test_pressure_mass_two_particle():
    assert pressure_mass_bound(two_particle_trace()) == pytest.approx(0.25, abs=1e-15)


def test_fictitious_particle_gap_constant():
    rng = np.random.default_rng(6)
    x0, u0, cone = random_admissible_datum(30, rng)
    trace = build_fields(evolve(x0, u0, cone, 2.0), DeltaPadding(0.07))
    for t in (0.0, 1.0, 2.0):
        snap = trace.snapshot(t)
        gap = snap.x_nodes[1] - snap.x_nodes[0]
        assert gap == pytest.approx(cone.two_r + 0.07, rel=1e-12)


def test_field_distance_identical_traces_zero():
    trace = two_particle_trace()
    f = trace.position_field(0.7, "affine")
    assert f.distance(f, "L2") == 0.0


def test_convergence_study_two_block_monotone():
    datum = two_block_datum(0.5)
    study = convergence_study(datum, [16, 32, 64, 128], 1.0,
                              [0.1, 0.2, 0.4, 0.8])
    sups = [study["sup"][n]["X"] for n in (16, 32, 64)]
    assert sups[0] > sups[1] > sups[2] > 0.0
    masses = [study["sup"][n]["pressure_mass"] for n in (16, 32, 64, 128)]
    assert max(masses) / min(masses) <= 2.0
    assert study["rate_fit"]["empirical_order_X"] > 0.5


def test_convergence_study_rigid_translation_zero_distance():
    datum = MacroscopicDatum(
        rearrangement_from_density([(0.0, 2.0, 0.5)]),
        PiecewiseField.constant(np.array([0.0, 1.0]), np.array([0.7])),
    )
    study = convergence_study(datum, [8, 16], 1.0, [0.5, 1.0])
    # the sampled fields coincide with the limit: only interpolation error remains
    assert study["sup"][8]["U"] == 0.0
    assert study["sup"][8]["Lambda"] == 0.0


def test_convergence_study_threads_deterministic():
    datum = two_block_datum(0.5)
    a = convergence_study(datum, [16, 32, 64], 1.0, [0.3, 0.6], threads=1)
    b = convergence_study(datum, [16, 32, 64], 1.0, [0.3, 0.6], threads=3)
    assert a["rows"] == b["rows"]


def test_resampling_preserves_norms_exactly():
    rng = np.random.default_rng(7)
    breaks = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 5))))
    field = PiecewiseField(breaks, rng.normal(size=6), rng.normal(size=6))
    fine = np.unique(np.concatenate((breaks, rng.uniform(0.0, 1.0, 9))))
    resampled = field.resampled(fine)
    for which in ("L1", "L2", "Linf"):
        assert resampled.norm(which) == pytest.approx(field.norm(which), rel=1e-13)
    assert resampled.integral() == pytest.approx(field.integral(), rel=1e-13)
