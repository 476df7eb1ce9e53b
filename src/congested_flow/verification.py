"""Full invariant battery over a simulated run.

Collects every proved microscopic and Eulerian property into one structured
report: Signorini complementarity, multiplier signs and boundary values,
the one-sided slope bound, the restart (semigroup) identity, momentum and
energy behaviour, monotonicity of the contact set, weak-form residuals,
Eulerian reconstruction sanity and the Wasserstein time modulus.  The same
battery backs the command-line verifier and the acceptance suite.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .cone import SpacingCone, project_onto_cone, qp_oracle_project, qp_oracle_project_many
from .dynamics import (
    CheckReport,
    EventRecord,
    active_set_monotone,
    max_slope_ratio,
    multipliers_at,
    restart_check,
    verify_complementarity,
    verify_estimates,
    worst_of,
)
from .eulerian import snapshot, velocity_l2, w2_report, weak_residual_report
from .errors import InvariantViolationError
from .fields import FieldTrace, oleinik_field_check, verify_discrete_pde
from .piecewise import sorted_distinct
from .tolerances import EULERIAN_MASS_TOL, ORACLE_CERTIFICATE_TOL, ORACLE_DEVIATION_TOL, \
    SAMPLE_EVENT_CLEARANCE, SAMPLE_SHIFT, SEMIGROUP_MIN_SPAN, TOL_COMPLEMENTARITY, \
    TOL_MIN_LAMBDA, TOL_MOMENTUM_PER_N, TOL_SEMIGROUP, TOL_WEAK_RESIDUAL, contact_tol
from .weakform import EventWeakForm

__all__ = ["CHECK_NAMES", "run_battery", "cone_oracle_sweep"]

# instants, strictly inside (0, horizon), at which the state checks run
SAMPLE_COUNT = 12
# names of run_battery's reports, in order
CHECK_NAMES = (
    "complementarity", "oleinik", "momentum_conservation", "energy_dissipation",
    "semigroup", "active_set_monotone", "discrete_pde", "oleinik_field",
    "eulerian_reconstruction", "eulerian_complementarity", "eulerian_oleinik",
    "wasserstein_modulus", "weak_residuals",
)


def _sample_times(horizon: float, events: np.ndarray) -> np.ndarray:
    """SAMPLE_COUNT instants avoiding the event times themselves."""
    ts = np.linspace(0.0, horizon, SAMPLE_COUNT + 2)[1:-1]
    if events.size:
        near = np.min(np.abs(ts[:, None] - events[None, :]), axis=1)
        ts = ts + np.where(near < SAMPLE_EVENT_CLEARANCE, SAMPLE_SHIFT, 0.0)
    return sorted_distinct(np.clip(ts, 0.0, horizon))


def _time_pairs(rng: np.random.Generator, horizon: float, count: int):
    """``count`` sorted pairs (s, t) drawn uniformly from [0, horizon]; none if horizon is 0."""
    for _ in range(count if horizon > 0.0 else 0):
        s, t = np.sort(rng.uniform(0.0, horizon, 2))
        yield float(s), float(t)


def _worst(name: str, runs: list, tolerance: float, detail: str) -> CheckReport:
    """One report from the (passed, value) runs of a check: all must pass.

    So a failing run fails the check whatever its value.  The value is the
    largest run value (``worst_of``: NaN if any is NaN), 0 without runs.
    """
    return CheckReport(name, all(ok for ok, _ in runs),
                       worst_of([value for _, value in runs]), tolerance, detail)


def _event_local(trace: FieldTrace, rec: EventRecord) -> dict:
    """The event-local values of the Oleinik and Eulerian checks, in one
    vectorised pass over the timeline's ``EventRecord``.

    Oleinik: at each event at t > 0, the pairs with a particle in its
    merged range lo..hi, at the left limit (u just before the event) and
    the right limit (after it), both with the event's positions, which do
    not jump.  Between two events that change a pair, its velocities are
    constant and its gap D + (t - t0) du is affine in t, so its ratio
    f(t) = t du / (D + (t - t0) du) has f' of the sign of du (D - t0 du):
    f is monotone there and its sup sits at an end of the window, the
    right limit of the event that opened it or the left limit of the one
    that closes it, or the horizon.  These values and every pair at the
    horizon give the exact sup over (0, horizon].

    Eulerian: each event's cells lo..hi+1 at the event instant (the
    fictitious gap when lo = 0): density two_r / width at most 1, the
    contact cells lo+1..hi at 1, and under each nonzero jump a saturated
    cell.  The gaps are affine in time between events, so each density
    also peaks at an end of a window.  The total mass is a running sum of
    the cell masses two_r / width * width: the initial ones, each
    replaced by its value at the last event that touched its cell.
    ``contact_tol`` at an event reads the end particles only.
    """
    two_r, n = trace.two_r, trace.n
    xl, ul, xr, ur = rec.sides.T
    first, last = rec.off[:-1], rec.off[1:] - 1
    x0, xm, u0, um = rec.x[first], rec.x[last], rec.u_pre[first], rec.u_pre[last]
    t, post = rec.times, rec.post
    left, right = rec.lo > 0, rec.hi + 1 < n
    xl = np.where(left, xl, x0 - two_r - trace.padding.delta)
    pairs = rec.inner[:-1]
    dx = (rec.x[1:] - rec.x[:-1])[pairs]
    du = (rec.u_pre[1:] - rec.u_pre[:-1])[pairs]
    t_in = np.repeat(t, rec.sizes - 1)
    p_in = np.repeat(post, rec.sizes - 1)
    on, on_in = t > 0.0, t_in > 0.0
    lw, rw = x0 - xl, xr - xm
    ratios = np.concatenate((
        (t_in * du / dx)[on_in], (t_in * (p_in - p_in) / dx)[on_in],
        (t * (u0 - ul) / lw)[on & left], (t * (post - ul) / lw)[on & left],
        (t * (ur - um) / rw)[on & right], (t * (ur - post) / rw)[on & right]))

    # cells lo (left), lo+1..hi (inner) and hi+1 (right) of each event,
    # ordered by cell, then by event: each replaces the one before it
    events = np.arange(t.size)
    owner = np.concatenate((events, np.repeat(events, rec.sizes - 1), events[right]))
    cell = np.concatenate((rec.lo, rec.index[rec.inner] + 1, rec.hi[right] + 1))
    width = np.concatenate((lw, dx, rw[right]))
    density = two_r / width
    order = np.lexsort((owner, cell))
    owner, cell, mass = owner[order], cell[order], (density * width)[order]
    snap0 = snapshot(trace.timeline.initial, trace.timeline.cone, trace.padding)
    mass0 = snap0.density * snap0.widths
    replaced = mass0[cell]
    again = np.flatnonzero(cell[1:] == cell[:-1]) + 1
    replaced[again] = mass[again - 1]
    step = np.bincount(owner, weights=mass - replaced, minlength=t.size)
    running = float(np.sum(mass0)) + np.cumsum(step)
    inner_density = two_r / dx
    return {
        "ratios": ratios,
        "mass": np.abs(running - 1.0),
        "density": density,
        "contact": np.abs(inner_density - 1.0),
        "atom": np.abs(1.0 - inner_density[rec.jumps != 0.0]),
        "tol": contact_tol(rec.ends[1:-1].T, axis=0) / two_r,
    }


def run_battery(trace: FieldTrace, rng: np.random.Generator | None = None,
                inject: str | None = None) -> list[CheckReport]:
    """Run every check on a simulated trace; returns one report per check, in order.

    ``active_set_monotone`` (the merge forest rule) comes first.  Then one
    replay stops only at the query instants: the SAMPLE_COUNT sampled
    instants, the horizon, the instants of the random pairs and the
    distinct event instants inside a Wasserstein pair.  It builds one full
    state per distinct query instant.  The timeline's ``EventRecord``,
    read off the columns with no replay, comes last.

    * At the sampled instants: momentum, then complementarity, the L1
      gradient bound of ``oleinik_field`` and the full Eulerian
      reconstruction (mass 1, density <= 1, and the contact cells, read off
      the state's partition, at density 1 within ``contact_tol`` / two_r).
      Momentum comes first: a state whose velocity sum drifts has no closed
      multiplier vector, so ``multipliers_at`` raises and that instant's
      complementarity run fails with the closure |lam_n| as value.
    * At each event, on its merged range only: the ``EventRecord`` slices.
      They give the exact Oleinik sup's values at both limits, the
      reconstruction of the event's cells and the pressure atoms in
      saturated cells (``_event_local`` says why the window ends give the
      exact sups), and ``verify_estimates``, ``verify_discrete_pde`` and
      the weak residuals (``EventWeakForm``: each event's velocity jump
      against its pressure atom) read them.
    * At the horizon: every pair of the Oleinik sup and the full Eulerian
      reconstruction.  ``oleinik``, ``oleinik_field`` and
      ``eulerian_oleinik`` report that one sup of t * du / dx over (0,
      horizon], which must stay below 1.
    * The 20 semigroup pairs, then the 10 Wasserstein pairs, are drawn from
      ``rng`` up front.  A pair keeps the state it needs from s (x, u and
      the partition; the padded x) and releases it at t.  The Wasserstein
      sup takes the velocity norm at s and at each distinct event instant
      e with s < e <= t, each computed once, before the pairs at e close
      or open.

    Cost O(n + sum of merged range sizes), plus O(n) per query instant.  A
    repeated check passes if all its runs pass and reports the largest
    value (``_worst``); a NaN value fails its check.

    If the events do not form a merge forest (the contact set would
    shrink, or an event misstates its blocks), ``active_set_monotone``
    fails with value len(events) and every other check is reported failed
    with value and tolerance NaN, not evaluated.  Otherwise neither the
    replay, whose ``_merge`` rule the forest implies, nor the record can
    reject an event.

    ``inject`` corrupts the input of exactly one check (negative control):
    "negative-lambda", "energy-bump" or "stale-density".
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    timeline = trace.timeline
    cone, n, two_r = timeline.cone, timeline.n, trace.two_r
    horizon = timeline.horizon
    ts = _sample_times(horizon, timeline.times)
    sampled = set(ts.tolist())
    semigroup_pairs = [(s, t) for s, t in _time_pairs(rng, horizon, 20)
                       if t - s >= SEMIGROUP_MIN_SPAN]
    w2_pairs = list(_time_pairs(rng, horizon, 10))
    opening, closing = defaultdict(list), defaultdict(list)
    for kind, pairs in (("semigroup", semigroup_pairs), ("w2", w2_pairs)):
        for k, (s, t) in enumerate(pairs):
            if s < t:
                opening[s].append((kind, k))
                closing[t].append((kind, k))
    monotone = CheckReport("active_set_monotone", active_set_monotone(timeline),
                           float(timeline.times.size), 0.0,
                           "contact set nondecreasing along events")
    if not monotone.passed:
        return [monotone if name == monotone.name else
                CheckReport(name, False, np.nan, np.nan,
                            "not evaluated: the events do not form a merge forest")
                for name in CHECK_NAMES]
    instants = sorted_distinct(timeline.times)
    norm_at = set()
    for s, t in w2_pairs:
        norm_at.update(instants[(s < instants) & (instants <= t)].tolist())
    queries = sorted(sampled | {horizon} | set(opening) | set(closing) | norm_at)
    sum_u0 = float(np.sum(timeline.u0))
    tol_momentum = TOL_MOMENTUM_PER_N * n
    h = np.diff(trace.w_grid)

    compl, momentum, field_l1, recon = [], [], [], []
    horizon_ratio = []
    # per open pair: the state at s (semigroup); the padded x(s) and the running
    # velocity sup (Wasserstein)
    open_pairs: dict = {"semigroup": {}, "w2": {}}
    semigroup, w2 = [], [{"passed": True, "modulus": 0.0} for s, t in w2_pairs if s == t]
    for cur in timeline.replay(queries):
        st = cur.state()
        t = cur.time
        if t in norm_at:
            norm = velocity_l2(h, st.velocities)
            for p in open_pairs["w2"].values():
                p[1] = worst_of((p[1], norm))
        if t in sampled:
            err = abs(float(np.sum(st.velocities)) - sum_u0)
            momentum.append((err <= tol_momentum, err))
            try:
                lam = multipliers_at(st, timeline.u0)
            except InvariantViolationError as exc:
                compl.append((False, CheckReport("complementarity", False, err / n,
                                                 TOL_COMPLEMENTARITY, str(exc))))
            else:
                if inject == "negative-lambda" and t == ts[-1]:
                    lam[lam.size // 2] = -1e-3
                rep = verify_complementarity(st, lam)
                # lam >= 0 is held to TOL_MIN_LAMBDA, tighter than the product's tolerance
                compl.append((rep.passed and float(lam.min()) >= -TOL_MIN_LAMBDA, rep))
            if t > 0.0:
                field_l1.append(oleinik_field_check(trace, st)["passed"])
        if t in sampled or t == horizon:
            snap = snapshot(st, cone, trace.padding)
            if inject == "stale-density" and t == ts[0]:
                snap = type(snap)(snap.time, snap.edges, snap.density * 1.5,
                                  snap.velocity, snap.two_r)
            # the pair (j, j + 1) is a contact iff j + 1 starts no block
            on_contact = np.ones(n - 1, dtype=bool)
            on_contact[st.starts[1:] - 1] = False
            contact_err = worst_of(np.abs(snap.density[1:][on_contact] - 1.0))
            recon.append((abs(snap.total_mass() - 1.0), float(np.max(snap.density)) - 1.0,
                          contact_err, contact_tol(st.positions) / two_r))
        if t == horizon and t > 0.0:
            horizon_ratio.append(max_slope_ratio(t, st.positions, st.velocities))
        for kind, k in closing.get(t, ()):
            kept = open_pairs[kind].pop(k)
            if kind == "semigroup":
                semigroup.append(restart_check(kept, st))
            else:
                s = w2_pairs[k][0]
                w2.append(w2_report(h, kept[0], trace.padding.pad(st.positions, two_r),
                                    s, t, kept[1]))
        for kind, k in opening.get(t, ()):
            open_pairs[kind][k] = (st if kind == "semigroup" else
                                   [trace.padding.pad(st.positions, two_r),
                                    velocity_l2(h, st.velocities)])
    # built after the replay, so that its arrays and the replay's states do not
    # coexist; it reads the merge forest the monotone check found
    record = EventRecord(timeline)
    local = _event_local(trace, record)

    top = max((r for _, r in compl), key=lambda r: r.value)
    ratio = worst_of(np.concatenate((local["ratios"], horizon_ratio)))
    # the fictitious node moves with the first particle: its pair adds a 0 ratio
    field_ratio = worst_of((ratio, 0.0))
    sup_detail = "exact sup over (0, horizon]"
    reports = [
        _worst("complementarity", [(ok, r.value) for ok, r in compl],
               TOL_COMPLEMENTARITY, top.detail),
        CheckReport("oleinik", ratio < 1.0, ratio, 1.0, "strict one-sided slope bound, " +
                    sup_detail),
        _worst("momentum_conservation", momentum, tol_momentum,
               "max |sum u(t) - sum u0| over sampled times"),
    ]

    est = verify_estimates(timeline, record)
    passed = est["passed"]
    initial, final = est["initial_energy"], est["final_energy"]
    if inject == "energy-bump":
        final = initial + 1.0
        passed = passed and final <= initial + est["energy_tolerance"]
    reports.append(CheckReport(
        "energy_dissipation", passed, final - initial, 0.0,
        f"energy {initial:.6g} -> {final:.6g}"))

    reports.append(_worst("semigroup", [(r.passed, r.value) for r in semigroup],
                          TOL_SEMIGROUP, "restart identity on 20 random (s, t) pairs"))

    reports.append(monotone)

    pde = verify_discrete_pde(trace, record)
    reports.append(CheckReport(
        "discrete_pde", pde["passed"],
        worst_of((pde["order1_max_residual"], pde["order2_max_residual"],
                  pde["multiplier_exclusion_max"], pde["atom_exclusion_max"])),
        pde["tolerance"], "interpolated order-1/order-2 systems and exclusion relations"))

    reports.append(CheckReport(
        "oleinik_field", field_ratio < 1.0 and all(field_l1), field_ratio, 1.0,
        "field-level slope bound (exact sup) and L1 gradient bound at sampled times"))
    mass = worst_of([m for m, *_ in recon] + [worst_of(local["mass"])])
    excess = worst_of([x for _, x, *_ in recon] + [worst_of(local["density"]) - 1.0])
    contact = worst_of([c for *_, c, _ in recon] + [worst_of(local["contact"])])
    density_tol = worst_of([tol for *_, tol in recon] + [worst_of(local["tol"])],
                           default=EULERIAN_MASS_TOL)
    reports.append(CheckReport(
        "eulerian_reconstruction",
        mass <= EULERIAN_MASS_TOL and excess <= density_tol and contact <= density_tol,
        worst_of((mass, excess, contact)), density_tol,
        "mass 1, density <= 1, contact cells at density 1"))
    atom_gap = worst_of(local["atom"])
    reports.append(CheckReport("eulerian_complementarity", atom_gap <= TOL_COMPLEMENTARITY,
                               atom_gap, TOL_COMPLEMENTARITY,
                               "pressure atoms supported in saturated cells"))
    reports.append(CheckReport("eulerian_oleinik", ratio < 1.0, ratio, 1.0,
                               "Eulerian slope bound, " + sup_detail))
    reports.append(_worst("wasserstein_modulus", [(r["passed"], r["modulus"]) for r in w2],
                          0.0, "W2 time modulus below the velocity-integral bound"))

    suite = weak_residual_report(EventWeakForm(record))
    reports.append(CheckReport(
        "weak_residuals", suite["passed"], suite["max_abs_residual"], suite["tolerance"],
        f"mass/momentum residuals over {suite['count']} test functions"))
    return reports


def cone_oracle_sweep(n_values, instances: int, rng: np.random.Generator) -> dict:
    """Randomized equivalence of the PAVA projection and the KKT oracle."""
    worst = 0.0
    worst_cert = 0.0
    total = 0
    for n in n_values:
        cone = SpacingCone.canonical(int(n))
        ys = rng.normal(0.0, 1.0, (instances, int(n))) * (2.0 / n) \
            + np.arange(int(n)) * (0.5 / n)
        ref = qp_oracle_project_many(cone, ys)
        for row in range(instances):
            x = project_onto_cone(cone, ys[row])
            worst = max(worst, float(np.max(np.abs(x - ref[row]))))
        _, cert = qp_oracle_project(cone, ys[0])
        worst_cert = max(worst_cert, cert.max_complementarity_violation,
                         -min(0.0, cert.min_lambda))
        total += instances
    return {
        "passed": bool(worst <= ORACLE_DEVIATION_TOL and worst_cert <= ORACLE_CERTIFICATE_TOL),
        "max_abs_deviation": worst,
        "max_certificate_violation": worst_cert,
        "instances": total,
        "tolerance": ORACLE_DEVIATION_TOL,
    }
