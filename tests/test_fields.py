"""Lagrangian interpolations, exact norms, discrete-system residuals."""

import dataclasses
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from congested_flow import dynamics, fields, piecewise
from congested_flow.cli import load_config
from congested_flow.cone import SpacingCone
from congested_flow.dynamics import EventRecord, EventTimeline, evolve, max_slope_ratio, \
    pressure_measure
from congested_flow.errors import InputDomainError
from congested_flow.eulerian import pressure_pushforward, wasserstein_time_modulus, \
    weak_residual_suite
from congested_flow.fields import (
    DeltaPadding,
    build_fields,
    convergence_study,
    oleinik_field_check,
    pressure_mass_bound,
    verify_discrete_pde,
)
from congested_flow.initdata import MacroscopicDatum, quantile_sample, \
    rearrangement_from_density
from congested_flow.piecewise import PiecewiseField, merge_breaks
from congested_flow.random_data import random_admissible_datum
from congested_flow.scenarios import two_block_datum
from test_dynamics import estimates_loop
from test_initdata import random_contacts_datum

TWO = SpacingCone(2, 1.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    xf = next(trace.iter_snapshots([1.0])).position_field(trace.w_grid, kind="pc")
    np.testing.assert_allclose(xf.left, [0.5, 1.5])
    np.testing.assert_array_equal(xf.left, xf.right)


def test_rigid_translation_zero_multipliers():
    tl = evolve(np.array([0.0, 2.0]), np.array([0.4, 0.4]), TWO, 2.0)
    trace = build_fields(tl)
    lam = next(trace.iter_snapshots([1.5])).multiplier_field(trace.w_grid, kind="affine")
    assert lam.linf_norm() == 0.0
    assert pressure_mass_bound(trace) == 0.0


def piston_run(n):
    """The piston, or snowplow: particle 0 at speed n sweeps the other n - 1,
    at rest one two_r of slack apart, one at a time by t = 1/2, so the
    merged ranges hold about n^2 / 2 entries."""
    cone = SpacingCone.canonical(n)
    u0 = np.zeros(n)
    u0[0] = n
    return evolve(2.0 * cone.two_r * np.arange(n), u0, cone, 2.0)


def pressure_mass_case(name):
    """Timelines of the closed-form mass test, by name."""
    kind, _, arg = name.rpartition("_")
    if kind == "piston":
        return [piston_run(int(arg))]
    if kind == "smooth_slab":
        datum = load_config(str(CONFIGS / "smooth_compression.json"))["_datum"]
        return [evolve(*quantile_sample(datum, int(arg)), 1.0)]
    contacts = kind == "random_contacts"
    return [evolve(*random_admissible_datum(n, np.random.default_rng(int(arg)),
                                            contacts=contacts,
                                            gap_scale=None if contacts else 0.5),
                   3.0 if contacts else 1.0)
            for n in (400, 2000, 8000)]


def exact_pressure_mass(tl):
    """The pressure mass of a timeline's velocity steps in rational
    arithmetic: per event, the running sum s of the steps over the kept
    entries, block by block; a block of r kept entries and step d adds
    r s + d r (r + 1) / 2 to the sum of the event's running sums."""
    total = Fraction(0)
    blocks, off, dv = tl.blocks.tolist(), tl.block_off.tolist(), tl.dv.tolist()
    for b0, b1 in zip(off, off[1:]):
        s = Fraction(0)
        for b in range(b0, b1):
            r, d = blocks[b][1] - blocks[b][0] + (b < b1 - 1), Fraction(dv[b])
            total += r * s + d * (r * (r + 1) // 2)
            s += r * d
    return float(-total / tl.n ** 2)


@pytest.mark.parametrize("name", ["random_contacts_0", "random_contacts_1", "random_contacts_2",
                                  "dilute_0", "piston_500", "piston_2000", "smooth_slab_8192"])
def test_pressure_mass_closed_form_equals_the_sum_of_the_jumps(name):
    # the mass sums each block's velocity step once per entry from its own to
    # its event's last, with no jump built; one sum of the built jumps adds
    # the same terms in another order, so they agree within rounding: at
    # most 24 ulps on these timelines (random contacts, seed 1, n = 8000),
    # held to 32.  The closed form lies within 2 ulps of the exact mass of
    # the steps, held to 4; the jump sum, whose running sums round at every
    # entry, lies up to 24 ulps from it here
    for tl in pressure_mass_case(name):
        got = pressure_mass_bound(build_fields(tl))
        total = float(np.sum(tl.jumps)) / tl.n
        exact = exact_pressure_mass(tl)
        assert type(got) is float and total > 0.0
        assert abs(got - total) <= 32 * np.spacing(total)
        assert abs(got - exact) <= 4 * np.spacing(exact)


def test_pressure_mass_is_plus_zero_without_events():
    rigid = evolve(np.array([0.0, 2.0]), np.array([0.4, 0.4]), TWO, 2.0)
    assert rigid.times.size == 0
    assert np.float64(pressure_mass_bound(build_fields(rigid))).tobytes() == \
        np.float64(0.0).tobytes()


def test_convergence_study_never_builds_the_jumps(monkeypatch, tmp_path):
    # the sweep's pressure mass reads the velocity steps; the Θ(merged size)
    # jump array is built only for a reader that asks for it
    def forbidden(self):
        raise AssertionError("convergence_study built EventTimeline.jumps")

    datum = random_contacts_datum(1, tmp_path)
    monkeypatch.setattr(EventTimeline, "jumps", property(forbidden))
    study = convergence_study(datum, [500, 1000, 2000], 1.0, [0.1, 0.4, 1.0])
    assert len(study["rows"]) == 9 and study["sup"][500]["pressure_mass"] > 0.0
    with pytest.raises(AssertionError, match="built EventTimeline.jumps"):
        build_fields(fields._run_single(datum, 500, 1.0, DeltaPadding()).timeline).atoms


def test_affine_slope_bounded_below():
    rng = np.random.default_rng(2)
    x0, u0, cone = random_admissible_datum(60, rng, contacts=True)
    trace = build_fields(evolve(x0, u0, cone, 2.0))
    for snap in trace.iter_snapshots([0.0, 0.7, 2.0]):
        xf = snap.position_field(trace.w_grid, kind="affine")
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
    for snap in trace.iter_snapshots([0.0, 0.6, 1.4]):
        xf = snap.position_field(trace.w_grid, kind="affine")
        assert xf.bv() == pytest.approx(snap.x_nodes[-1] - snap.x_nodes[0], rel=1e-14)


def test_pc_vs_affine_l1_identity():
    # the two interpolants differ by exactly spread / (2 n) in L1
    rng = np.random.default_rng(4)
    x0, u0, cone = random_admissible_datum(37, rng)
    trace = build_fields(evolve(x0, u0, cone, 1.5))
    for snap in trace.iter_snapshots([0.0, 0.8, 1.5]):
        d = snap.position_field(trace.w_grid, "pc").distance(
            snap.position_field(trace.w_grid, "affine"), "L1")
        expected = (snap.x_nodes[-1] - snap.x_nodes[0]) / (2.0 * trace.n)
        assert d == pytest.approx(expected, rel=1e-12)


def test_pc_vs_affine_multiplier_sup_bound():
    trace = two_particle_trace()
    for snap in trace.iter_snapshots([0.6, 1.2]):
        d = snap.multiplier_field(trace.w_grid, "pc").distance(
            snap.multiplier_field(trace.w_grid, "affine"), "Linf")
        assert d <= np.max(np.abs(np.diff(snap.lam))) + 1e-15


def test_discrete_pde_free_flight_trivial():
    tl = evolve(np.array([0.0, 3.0]), np.array([0.2, 0.4]), TWO, 1.0)
    rep = verify_discrete_pde(EventRecord(tl))
    assert rep["passed"]
    assert rep["order1_max_residual"] == 0.0


def test_discrete_pde_two_particle_balance():
    rep = verify_discrete_pde(EventRecord(two_particle_trace().timeline))
    assert rep["passed"]
    assert rep["order2_max_residual"] <= 1e-12


def test_discrete_pde_random_run():
    rng = np.random.default_rng(5)
    x0, u0, cone = random_admissible_datum(200, rng, contacts=True)
    rep = verify_discrete_pde(EventRecord(evolve(x0, u0, cone, 2.0)))
    assert rep["passed"]
    assert max(rep["order1_max_residual"], rep["order2_max_residual"]) <= 1e-10


def test_discrete_pde_order1_negative_control():
    """One initial velocity shifted by 1e-6, at a particle that never merges
    and at a merged one: the order-1 residual sees it, order 2 does not."""
    x0, u0, cone = random_admissible_datum(200, np.random.default_rng(5), contacts=True)
    tl = evolve(x0, u0, cone, 2.0)
    merged = np.zeros(tl.n, dtype=bool)
    for e in tl.events:
        lo, hi = e.index_range
        merged[lo:hi + 1] = True
    assert verify_discrete_pde(EventRecord(tl))["passed"]
    for i in (np.flatnonzero(~merged)[0], np.flatnonzero(merged)[0]):
        bad_u0 = tl.u0.copy()
        bad_u0[i] += 1e-6
        rep = verify_discrete_pde(EventRecord(dataclasses.replace(tl, u0=bad_u0)))
        assert not rep["passed"] and rep["order1_max_residual"] > 0.9e-6
        assert rep["order2_max_residual"] <= 1e-12


def test_discrete_pde_builds_no_state_or_snapshot(monkeypatch):
    x0, u0, cone = random_admissible_datum(200, np.random.default_rng(5), contacts=True)
    trace = build_fields(evolve(x0, u0, cone, 2.0))

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_discrete_pde reads the events only")

    monkeypatch.setattr(EventTimeline, "iter_states", forbidden)
    monkeypatch.setattr(fields.FieldTrace, "iter_snapshots", forbidden)
    assert verify_discrete_pde(EventRecord(trace.timeline))["passed"]


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
        pressure_pushforward(pressure_measure(tl))

    lift(random_contacts_run(50)[0])  # one-time allocations stay unmeasured
    tl, units = random_contacts_run(2000)
    assert len(tl.events) > 1000
    assert traced_peak(lambda: lift(tl)) <= BYTES_PER_UNIT * units
    tl, units = random_contacts_run(500)
    trace = build_fields(tl)
    assert traced_peak(lambda: verify_discrete_pde(EventRecord(trace.timeline))) <= BYTES_PER_UNIT * units


def test_weak_residual_memory_is_linear_in_n_plus_merged_size():
    # the weak check reads the events only; two dense length-n arrays per
    # inter-event window cost n * events, about 9 times the bound here
    weak_residual_suite(build_fields(random_contacts_run(50)[0]))
    tl, units = random_contacts_run(2000)
    trace = build_fields(tl)
    assert traced_peak(lambda: weak_residual_suite(trace)) <= BYTES_PER_UNIT * units


def test_evolve_memory_is_linear_in_n_plus_merged_size():
    # the event records and their jumps may hold O(n + merged size), never a
    # per-event copy of anything of size n
    random_contacts_run(50)  # one-time allocations stay unmeasured
    tl, units = random_contacts_run(2000)
    assert traced_peak(lambda: evolve(tl.x0, tl.u0, tl.cone, 1.0)) <= BYTES_PER_UNIT * units


def test_evolve_memory_is_linear_in_n_plus_events():
    # a timeline stores one velocity step per merged block, never a jump per
    # merged entry: on the piston, whose merged ranges hold n^2 / 2 entries,
    # a stored jump array costs about 4800 B per (n + events) at n = 2000
    random_contacts_run(50)  # one-time allocations stay unmeasured
    for tl in (piston_run(2000), random_contacts_run(2000)[0]):
        units = tl.n + tl.times.size
        assert traced_peak(lambda: evolve(tl.x0, tl.u0, tl.cone, tl.horizon)) <= 512 * units


def test_wasserstein_modulus_memory_is_linear_in_n_plus_merged_size():
    # a list of full snapshots, one per event in (s, t], costs n * events; the
    # window holds the last 300 events, whose list alone would be 3x the bound
    wasserstein_time_modulus(build_fields(random_contacts_run(50)[0]), 0.0, 1.0)
    tl, units = random_contacts_run(2000)
    trace = build_fields(tl)
    s = float(tl.events[-301].time)
    assert traced_peak(lambda: wasserstein_time_modulus(trace, s, 1.0)) \
        <= BYTES_PER_UNIT * units

def test_oleinik_field_post_merge_and_l1_bound():
    trace = two_particle_trace()
    rep = oleinik_field_check(trace, next(trace.timeline.iter_states([1.0])))
    assert rep["passed"] and rep["max_ratio"] == 0.0
    rep = oleinik_field_check(trace, next(trace.timeline.iter_states([0.25])))
    # the interior slope is negative; the padding cell contributes zero
    assert rep["passed"] and rep["max_ratio"] == 0.0
    assert rep["gradient_l1"] == pytest.approx(2.0)
    assert rep["gradient_l1"] <= rep["gradient_l1_bound"]
    with pytest.raises(InputDomainError):
        oleinik_field_check(trace, trace.timeline.initial)


def test_pressure_mass_two_particle():
    # one jump of 1/2 at n = 2: the weights and the steps are exact
    assert pressure_mass_bound(two_particle_trace()) == 0.25


def test_fictitious_particle_gap_constant():
    rng = np.random.default_rng(6)
    x0, u0, cone = random_admissible_datum(30, rng)
    trace = build_fields(evolve(x0, u0, cone, 2.0), DeltaPadding(0.07))
    for snap in trace.iter_snapshots([0.0, 1.0, 2.0]):
        gap = snap.x_nodes[1] - snap.x_nodes[0]
        assert gap == pytest.approx(cone.two_r + 0.07, rel=1e-12)


def test_field_distance_identical_traces_zero():
    trace = two_particle_trace()
    f = next(trace.iter_snapshots([0.7])).position_field(trace.w_grid, "affine")
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


def test_convergence_study_rejects_nan_times_and_horizon():
    # a NaN sample time gave rows at t = nan; with a NaN horizon the two
    # blocks did not collide and passed through each other after t* = 0.25
    datum = two_block_datum(0.5)
    for horizon, times in ((1.0, [0.5, np.nan]), (1.0, [np.nan]), (np.nan, [0.5])):
        with pytest.raises(InputDomainError):
            convergence_study(datum, [16, 32], horizon, times)


def test_convergence_study_builds_no_event_object(monkeypatch):
    # the sweep reads the timeline's columns; MergeEvent views are built only
    # for a reader that asks for ``timeline.events``
    built = []
    view = dynamics.MergeEvent

    def counting(*args):
        built.append(args[0])
        return view(*args)

    monkeypatch.setattr(dynamics, "MergeEvent", counting)
    datum = two_block_datum(0.5)
    study = convergence_study(datum, [16, 32], 1.0, [0.2, 0.6, 1.0])
    assert len(study["rows"]) == 6 and study["sup"][16]["pressure_mass"] > 0.0
    assert built == []
    # the patch does see the views that are built
    tl = evolve(*quantile_sample(datum, 16), 1.0)
    assert len(tl.events) == len(built) == 1


def test_convergence_study_rigid_translation_zero_distance():
    datum = MacroscopicDatum(
        rearrangement_from_density([(0.0, 2.0, 0.5)]),
        PiecewiseField.constant(np.array([0.0, 1.0]), np.array([0.7])),
    )
    study = convergence_study(datum, [8, 16], 1.0, [0.5, 1.0])
    # the sampled fields coincide with the limit: only interpolation error remains
    assert study["sup"][8]["U"] == 0.0
    assert study["sup"][8]["Lambda"] == 0.0


def per_field_distance_study(datum, n_list, horizon, sample_times,
                             padding=DeltaPadding()):
    """The sweep as it was before the shared mass grid: one ``distance`` call,
    with its own union grid and piece lookups, per (n, time, field)."""
    n_list = sorted(set(int(n) for n in n_list))
    sample_times = sorted(float(t) for t in sample_times)
    traces = {n: fields._run_single(datum, n, horizon, padding) for n in n_list}
    n_ref = n_list[-1]
    ref = traces[n_ref]
    ref_snaps = list(ref.iter_snapshots(sample_times))
    rows = []
    sup_dist = {}
    for n in n_list:
        tr = traces[n]
        mass = pressure_mass_bound(tr)
        sup_x = sup_u = sup_lam = 0.0
        for snap, rsnap in zip(tr.iter_snapshots(sample_times), ref_snaps):
            fx = snap.position_field(tr.w_grid)
            dx = fx.distance(rsnap.position_field(ref.w_grid), "L2")
            du = snap.velocity_field(tr.w_grid).distance(rsnap.velocity_field(ref.w_grid), "L2")
            dl = snap.multiplier_field(tr.w_grid).distance(
                rsnap.multiplier_field(ref.w_grid), "L2")
            sup_x, sup_u, sup_lam = max(sup_x, dx), max(sup_u, du), max(sup_lam, dl)
            ole = (max_slope_ratio(snap.time, snap.x_nodes, snap.u_nodes)
                   if snap.time > 0.0 else 0.0)
            rows.append({
                "n": n,
                "t": snap.time,
                "dist_X_L2": dx,
                "dist_U_L2": du,
                "dist_Lambda_L2": dl,
                "pressure_mass": mass,
                "bv_X": fx.bv(),
                "oleinik_max": ole,
            })
        sup_dist[n] = {"X": sup_x, "U": sup_u, "Lambda": sup_lam, "pressure_mass": mass}
    return rows, sup_dist


def float_bits(obj):
    """Every float replaced by its exact hex form, so == compares bit patterns."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: float_bits(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [float_bits(v) for v in obj]
    return obj


# three blocks of density below 1 under a compressing velocity: several
# events per run, with multipliers nonzero at every sample time
MULTI_EVENT = {
    "scenario": {
        "name": "custom",
        "density": [[0.0, 0.5, 0.8], [1.0, 1.5, 0.6], [2.0, 2.5, 0.6]],
        "velocity": {"kind": "lagrangian",
                     "pieces": [[0.0, 0.5, 1.0, 0.2], [0.5, 1.0, 0.0, -1.0]]},
    },
    "n_list": [8, 16, 64],
    "horizon": 1.5,
    "delta": 0.1,
    "sample_times": [0.25, 0.5, 0.75, 1.0, 1.5],
}


@pytest.mark.parametrize("config, n_list", [
    ("two_block.json", None),
    ("smooth_compression.json", None),
    ("two_block.json", [6, 10, 15]),
    ("smooth_compression.json", [6, 10, 15]),
    (MULTI_EVENT, None),
    (MULTI_EVENT, [12, 20, 30]),
], ids=["two_block", "smooth_compression", "two_block_non_nested",
        "smooth_compression_non_nested", "multi_event", "multi_event_non_nested"])
def test_shared_grid_sweep_equals_per_field_distances(config, n_list, tmp_path):
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        cfg = load_config(str(path))
    else:
        cfg = load_config(str(CONFIGS / config))
    n_list = n_list or cfg["n_list"]
    ref_w = np.arange(max(n_list) + 1) / max(n_list)
    if n_list == [6, 10, 15]:
        # the union grid of n = 6 and the reference differs from both sides' grids
        assert merge_breaks(np.arange(7) / 6, ref_w).size > ref_w.size
    args = (cfg["_datum"], n_list, cfg["_horizon"], cfg["_sample_times"],
            DeltaPadding(cfg["_delta"]))
    study = convergence_study(*args)
    rows, sup = per_field_distance_study(*args)
    assert float_bits(study["rows"]) == float_bits(rows)
    assert float_bits(study["sup"]) == float_bits(sup)


@pytest.mark.parametrize("n_times", [1, 5])
def test_convergence_study_merges_one_grid_per_n(monkeypatch, n_times):
    calls = []

    def counting_merge_breaks(a, b):
        calls.append(1)
        return merge_breaks(a, b)

    # patched where it is defined and where fields imported it, so that a
    # return to per-field ``distance`` calls would be counted as well
    monkeypatch.setattr(piecewise, "merge_breaks", counting_merge_breaks)
    monkeypatch.setattr(fields, "merge_breaks", counting_merge_breaks)
    n_list = [8, 12, 16]
    convergence_study(two_block_datum(0.5), n_list, 1.0, np.linspace(0.2, 1.0, n_times))
    assert len(calls) == len(n_list) - 1


@pytest.mark.parametrize("n_list, lookup_grids", [
    ([8, 16, 64], [8, 16]),
    ([12, 20, 30], [12, 30, 20, 30]),
], ids=["nested", "non_nested"])
def test_convergence_study_builds_nothing_on_the_reference_grid(monkeypatch, n_list,
                                                                lookup_grids):
    # one lookup of the run's grid per n below the reference, plus one of the
    # reference grid for each n that does not divide the reference n
    pieces, breaks = [], []
    lookup_of = piecewise.Resampling.of.__func__
    post_init = PiecewiseField.__post_init__

    def counting_of(cls, old_breaks, new_breaks):
        pieces.append(old_breaks.size - 1)
        return lookup_of(cls, old_breaks, new_breaks)

    def counting_post_init(self):
        breaks.append(np.asarray(self.breaks).size)
        post_init(self)

    datum = two_block_datum(0.5)
    monkeypatch.setattr(piecewise.Resampling, "of", classmethod(counting_of))
    monkeypatch.setattr(PiecewiseField, "__post_init__", counting_post_init)
    convergence_study(datum, n_list, 1.0, [0.2, 0.6, 1.0])
    assert pieces == lookup_grids
    assert max(n_list) + 1 not in breaks


def test_resampling_preserves_norms_exactly():
    rng = np.random.default_rng(7)
    breaks = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 5))))
    field = PiecewiseField(breaks, rng.normal(size=6), rng.normal(size=6))
    fine = np.unique(np.concatenate((breaks, rng.uniform(0.0, 1.0, 9))))
    resampled = field.resampled(fine)
    for which in ("L1", "L2", "Linf"):
        assert resampled.norm(which) == pytest.approx(field.norm(which), rel=1e-13)
    assert resampled.integral() == pytest.approx(field.integral(), rel=1e-13)


def discrete_pde_reference(trace):
    """Reference: verify_discrete_pde's per-event loop on ``estimates_loop``, numpy per event."""
    n, u0 = trace.n, trace.timeline.u0
    order1 = float(np.max(np.abs(trace.timeline.initial.velocities - u0)))
    order2 = compl = atom_compl = 0.0
    for e, (u_pre, u, lam) in zip(trace.timeline.events, estimates_loop(trace.timeline)):
        lo, hi = e.index_range
        jump_grad = np.diff(e.jump_values, prepend=0.0, append=0.0)
        order2 = max(order2, float(np.max(np.abs((e.post_velocity - u_pre) + n * jump_grad))))
        resid = u[lo:hi + 1] - (u0[lo:hi + 1] - n * np.diff(lam[lo:hi + 2]))
        order1 = max(order1, float(np.max(np.abs(resid))))
        positions = e.x_left + trace.two_r * np.arange(hi + 1 - lo)
        slack = n * np.diff(positions) - trace.slope_min
        compl = max(compl, float(np.max(np.abs(slack * lam[lo + 1:hi + 1]))))
        atom_compl = max(atom_compl, float(np.max(np.abs(slack * e.jump_values))))
    return order1, order2, compl, atom_compl


@pytest.mark.parametrize("seed", range(30))
def test_flat_discrete_pde_equals_the_per_event_loop(seed):
    x0, u0, cone = random_admissible_datum(150, np.random.default_rng(seed), contacts=True)
    trace = build_fields(evolve(x0, u0, cone, 3.0))
    rep = verify_discrete_pde(EventRecord(trace.timeline))
    assert rep["passed"] and len(trace.timeline.events) > 50
    assert (rep["order1_max_residual"], rep["order2_max_residual"],
            rep["multiplier_exclusion_max"], rep["atom_exclusion_max"]) == \
        discrete_pde_reference(trace)


def test_sorted_distinct_equals_np_unique():
    rng = np.random.default_rng(11)
    cases = [np.array([0.0]), np.array([0.0, -0.0, 0.0, -0.0]), np.array([-0.0, 0.0, 1.0]),
             rng.integers(-5, 5, 200).astype(float), rng.normal(size=300),
             np.repeat(rng.normal(size=7), 9), np.arange(1, 65) / 64]
    for values in cases:
        for v in (values, rng.permutation(values)):
            want = np.unique(v)
            got = piecewise.sorted_distinct(v)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
