"""Full invariant battery over a simulated run.

Collects every proved microscopic and Eulerian property into one structured
report: Signorini complementarity, multiplier signs and boundary values,
the one-sided slope bound, the restart (semigroup) identity, momentum and
energy behaviour, monotonicity of the contact set, weak-form residuals,
Eulerian reconstruction sanity and the Wasserstein time modulus.  The same
battery backs the command-line verifier and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .cone import SpacingCone, project_onto_cone, qp_oracle_project, qp_oracle_project_many
from .dynamics import (
    CheckReport,
    active_set_monotone,
    multipliers_at,
    pressure_measure,
    verify_complementarity,
    verify_estimates,
    verify_oleinik,
    verify_semigroup,
)
from .eulerian import (
    complementarity_eulerian,
    oleinik_eulerian,
    pressure_pushforward,
    snapshot,
    wasserstein_time_modulus,
    weak_residual_suite,
)
from .errors import InvariantViolationError
from .fields import FieldTrace, oleinik_field_check, verify_discrete_pde
from .tolerances import EULERIAN_MASS_TOL, ORACLE_CERTIFICATE_TOL, ORACLE_DEVIATION_TOL, \
    SAMPLE_EVENT_CLEARANCE, SAMPLE_SHIFT, SEMIGROUP_MIN_SPAN, TOL_COMPLEMENTARITY, \
    TOL_MIN_LAMBDA, TOL_MOMENTUM_PER_N, TOL_SEMIGROUP, TOL_WEAK_RESIDUAL, contact_tol

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
    return np.unique(np.clip(ts, 0.0, horizon))


def _time_pairs(rng: np.random.Generator, horizon: float, count: int):
    """``count`` sorted pairs (s, t) drawn uniformly from [0, horizon]; none if horizon is 0."""
    for _ in range(count if horizon > 0.0 else 0):
        s, t = np.sort(rng.uniform(0.0, horizon, 2))
        yield float(s), float(t)


def _worst(name: str, runs: list, tolerance: float, detail: str) -> CheckReport:
    """One report from the (passed, value) runs of a check: all must pass.

    So a failing run fails the check whatever its value, NaN included.  The
    value is the largest run value, 0 without runs.
    """
    return CheckReport(name, all(ok for ok, _ in runs),
                       max((value for _, value in runs), default=0.0), tolerance, detail)


def run_battery(trace: FieldTrace, rng: np.random.Generator | None = None,
                inject: str | None = None) -> list[CheckReport]:
    """Run every check on a simulated trace; returns one report per check, in order.

    One ``iter_states`` pass streams the states at the sampled instants and
    the event instants.  The sampled ones feed momentum, complementarity and
    (t > 0) both Oleinik checks; every instant feeds the Eulerian checks.
    Momentum is checked first: a state whose velocity sum drifts has no
    closed multiplier vector, so ``multipliers_at`` raises and that
    instant's complementarity run fails with the closure |lam_n| as value.
    The semigroup and Wasserstein checks run on 20, then 10, random (s, t)
    pairs from ``rng``; the others read the events.  A repeated check passes
    if all its runs pass and reports the largest value (``_worst``).  The
    contact cells of an Eulerian snapshot are read off its state's partition
    and held to density 1 within ``contact_tol`` / two_r.

    ``active_set_monotone`` runs first: if the replay rejects an event, it
    fails and every other check is reported failed with value and tolerance
    NaN, not evaluated.

    ``inject`` corrupts the input of exactly one check (negative control):
    "negative-lambda", "energy-bump" or "stale-density".
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    timeline = trace.timeline
    monotone = CheckReport("active_set_monotone", active_set_monotone(timeline),
                           float(len(timeline.events)), 0.0,
                           "contact set nondecreasing along events")
    if not monotone.passed:
        return [monotone if name == monotone.name else
                CheckReport(name, False, np.nan, np.nan,
                            "not evaluated: the replay rejects an event")
                for name in CHECK_NAMES]
    cone = timeline.cone
    horizon = timeline.horizon
    events = timeline.event_times()
    ts = _sample_times(horizon, events)
    sampled = set(ts.tolist())
    sum_u0 = float(np.sum(timeline.u0))
    tol_momentum = TOL_MOMENTUM_PER_N * timeline.n
    atoms_by_time: dict[float, list] = {}
    for a in pressure_pushforward(pressure_measure(timeline), trace):
        atoms_by_time.setdefault(a.time, []).append(a)

    compl, oleinik, momentum, field_ole = [], [], [], []
    recon, compl_e, ole_e = [], [], []
    for st in timeline.iter_states(sorted(sampled | set(events.tolist()))):
        if st.time in sampled:
            err = abs(float(np.sum(st.velocities)) - sum_u0)
            momentum.append((err <= tol_momentum, err))
            try:
                lam = multipliers_at(st, timeline.u0)
            except InvariantViolationError as exc:
                compl.append((False, CheckReport("complementarity", False, err / timeline.n,
                                                 TOL_COMPLEMENTARITY, str(exc))))
            else:
                if inject == "negative-lambda" and st.time == ts[-1]:
                    lam[lam.size // 2] = -1e-3
                rep = verify_complementarity(st, lam)
                # lam >= 0 is held to TOL_MIN_LAMBDA, tighter than the product's tolerance
                compl.append((rep.passed and float(lam.min()) >= -TOL_MIN_LAMBDA, rep))
            if st.time > 0.0:
                rep = verify_oleinik(st)
                oleinik.append((rep.passed, rep.value))
                rep = oleinik_field_check(trace, st)
                field_ole.append((rep["passed"], rep["max_ratio"]))
        snap = snapshot(st, cone, trace.padding)
        if inject == "stale-density" and st.time == ts[0]:
            snap = type(snap)(snap.time, snap.edges, snap.density * 1.5,
                              snap.velocity, snap.two_r)
        # the pair (j, j + 1) is a contact iff j + 1 starts no block
        on_contact = np.ones(st.n - 1, dtype=bool)
        on_contact[st.starts[1:] - 1] = False
        contact_err = (float(np.max(np.abs(snap.density[1:][on_contact] - 1.0)))
                       if np.any(on_contact) else 0.0)
        recon.append((abs(snap.total_mass() - 1.0), float(np.max(snap.density)) - 1.0,
                      contact_err, contact_tol(st.positions) / cone.two_r))
        for atom in atoms_by_time.get(st.time, ()):
            rep = complementarity_eulerian(snap, atom)
            compl_e.append((rep.passed, rep.value))
        if st.time > 0.0:
            rep = oleinik_eulerian(snap)
            ole_e.append((rep.passed, rep.value))
    density_tol = max([EULERIAN_MASS_TOL] + [tol for *_, tol in recon])

    top = max((r for _, r in compl), key=lambda r: r.value)
    reports = [
        _worst("complementarity", [(ok, r.value) for ok, r in compl],
               TOL_COMPLEMENTARITY, top.detail),
        _worst("oleinik", oleinik, 1.0, "strict one-sided slope bound at sampled times"),
        _worst("momentum_conservation", momentum, tol_momentum,
               "max |sum u(t) - sum u0| over sampled times"),
    ]

    est = verify_estimates(timeline)
    passed = est["passed"]
    initial, final = est["initial_energy"], est["final_energy"]
    if inject == "energy-bump":
        final = initial + 1.0
        passed = passed and final <= initial + est["energy_tolerance"]
    reports.append(CheckReport(
        "energy_dissipation", passed, final - initial, 0.0,
        f"energy {initial:.6g} -> {final:.6g}"))

    semigroup = [verify_semigroup(timeline, s, t)
                 for s, t in _time_pairs(rng, horizon, 20) if t - s >= SEMIGROUP_MIN_SPAN]
    reports.append(_worst("semigroup", [(r.passed, r.value) for r in semigroup],
                          TOL_SEMIGROUP, "restart identity on 20 random (s, t) pairs"))

    reports.append(monotone)

    pde = verify_discrete_pde(trace)
    reports.append(CheckReport(
        "discrete_pde", pde["passed"],
        max(pde["order1_max_residual"], pde["order2_max_residual"],
            pde["multiplier_exclusion_max"], pde["atom_exclusion_max"]),
        pde["tolerance"], "interpolated order-1/order-2 systems and exclusion relations"))

    reports.append(_worst("oleinik_field", field_ole, 1.0,
                          "field-level slope bound and L1 gradient bound"))
    reports.append(_worst(
        "eulerian_reconstruction",
        [(mass <= EULERIAN_MASS_TOL and excess <= density_tol and contact <= density_tol,
          max(mass, excess, contact)) for mass, excess, contact, _ in recon],
        density_tol, "mass 1, density <= 1, contact cells at density 1"))
    reports.append(_worst("eulerian_complementarity", compl_e, TOL_COMPLEMENTARITY,
                          "pressure atoms supported in saturated cells"))
    reports.append(_worst("eulerian_oleinik", ole_e, 1.0,
                          "Eulerian slope bound at sampled and event instants"))

    w2 = [wasserstein_time_modulus(trace, s, t) for s, t in _time_pairs(rng, horizon, 10)]
    reports.append(_worst("wasserstein_modulus", [(r["passed"], r["modulus"]) for r in w2],
                          0.0, "W2 time modulus below the velocity-integral bound"))

    suite = weak_residual_suite(trace)
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
