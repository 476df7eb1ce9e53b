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
from .fields import FieldTrace, oleinik_field_check, verify_discrete_pde

__all__ = ["CHECK_NAMES", "run_battery", "cone_oracle_sweep"]

TOL_COMPLEMENTARITY = 1e-10
TOL_MIN_LAMBDA = 1e-12
TOL_SEMIGROUP = 1e-9
TOL_MOMENTUM_PER_N = 1e-12
TOL_WEAK_RESIDUAL = 1e-8
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
        ts = ts + np.where(near < 1e-9, 3e-9, 0.0)
    return np.unique(np.clip(ts, 0.0, horizon))


def run_battery(trace: FieldTrace, rng: np.random.Generator | None = None,
                inject: str | None = None) -> list[CheckReport]:
    """Run every check on a simulated trace; returns one report per check, in order.

    ``inject`` corrupts the input of exactly one check (negative control):
    "negative-lambda", "energy-bump" or "stale-density".
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    timeline = trace.timeline
    cone = timeline.cone
    horizon = timeline.horizon
    events = timeline.event_times()
    ts = _sample_times(horizon, events)
    reports: list[CheckReport] = []

    compl_worst = None
    oleinik_worst = None
    momentum_err = 0.0
    sum_u0 = float(np.sum(timeline.u0))
    for st in timeline.iter_states(ts):
        mult = multipliers_at(st, timeline.u0)
        if inject == "negative-lambda" and st.time == ts[-1]:
            lam = mult.lambdas.copy()
            lam[len(lam) // 2] = -1e-3
            mult = type(mult)(lam)
        rep = verify_complementarity(st, mult, TOL_COMPLEMENTARITY)
        if compl_worst is None or rep.value > compl_worst.value:
            compl_worst = rep
        if st.time > 0.0:
            rep_o = verify_oleinik(st)
            if oleinik_worst is None or rep_o.value > oleinik_worst.value:
                oleinik_worst = rep_o
        momentum_err = max(momentum_err, abs(float(np.sum(st.velocities)) - sum_u0))
    reports.append(compl_worst)
    reports.append(CheckReport(
        "oleinik", oleinik_worst is None or oleinik_worst.passed,
        0.0 if oleinik_worst is None else oleinik_worst.value, 1.0,
        "strict one-sided slope bound at sampled times"))
    tol_momentum = TOL_MOMENTUM_PER_N * timeline.n
    reports.append(CheckReport(
        "momentum_conservation", momentum_err <= tol_momentum, momentum_err, tol_momentum,
        "max |sum u(t) - sum u0| over sampled times"))

    est = verify_estimates(timeline)
    passed = est["passed"]
    initial, final = est["initial_energy"], est["final_energy"]
    if inject == "energy-bump":
        final = initial + 1.0
        passed = passed and final <= initial + est["energy_tolerance"]
    reports.append(CheckReport(
        "energy_dissipation", passed, final - initial, 0.0,
        f"energy {initial:.6g} -> {final:.6g}"))

    worst_sg = None
    if horizon > 0.0:
        for _ in range(20):
            s, t = np.sort(rng.uniform(0.0, horizon, 2))
            if t - s < 1e-9:
                continue
            rep = verify_semigroup(timeline, float(s), float(t), TOL_SEMIGROUP)
            if worst_sg is None or rep.value > worst_sg.value:
                worst_sg = rep
    reports.append(CheckReport(
        "semigroup", worst_sg is None or worst_sg.passed,
        0.0 if worst_sg is None else worst_sg.value, TOL_SEMIGROUP,
        "restart identity on 20 random (s, t) pairs"))

    reports.append(CheckReport(
        "active_set_monotone", active_set_monotone(timeline), float(len(timeline.events)),
        0.0, "contact set nondecreasing along events"))

    pde = verify_discrete_pde(trace)
    reports.append(CheckReport(
        "discrete_pde", pde["passed"],
        max(pde["order1_max_residual"], pde["order2_max_residual"],
            pde["multiplier_exclusion_max"], pde["atom_exclusion_max"]),
        pde["tolerance"], "interpolated order-1/order-2 systems and exclusion relations"))

    field_ole_ok = True
    field_ole_val = 0.0
    for t in ts:
        if t <= 0.0:
            continue
        rep = oleinik_field_check(trace, float(t))
        field_ole_ok &= rep["passed"]
        field_ole_val = max(field_ole_val, rep["max_ratio"])
    reports.append(CheckReport(
        "oleinik_field", bool(field_ole_ok), field_ole_val, 1.0,
        "field-level slope bound and L1 gradient bound"))

    # Eulerian reconstruction
    press = pressure_pushforward(pressure_measure(timeline), trace)
    atoms_by_time: dict[float, list] = {}
    for a in press.atoms:
        atoms_by_time.setdefault(a.time, []).append(a)
    mass_err = 0.0
    density_excess = 0.0
    contact_density_err = 0.0
    density_tol = 1e-12
    compl_e_ok = ole_e_ok = True
    compl_e = 0.0
    ole_e = []
    for st in timeline.iter_states(sorted(set(ts.tolist()) | set(events.tolist()))):
        snap = snapshot(st, cone, trace.padding)
        if inject == "stale-density" and st.time == ts[0]:
            snap = type(snap)(snap.time, snap.edges, snap.density * 1.5,
                              snap.velocity, snap.two_r)
        mass_err = max(mass_err, abs(snap.total_mass() - 1.0))
        density_excess = max(density_excess, float(np.max(snap.density)) - 1.0)
        gaps = np.diff(snap.edges)[1:]
        ctol = 1e-12 * (1.0 + float(np.abs(snap.edges).max()))
        # a gap certified equal to two_r within ctol pins the density to 1
        # within ctol / two_r; exact (zero) at dyadic particle counts
        density_tol = max(density_tol, ctol / cone.two_r * 1.001)
        on_contact = np.abs(gaps - cone.two_r) <= ctol
        if np.any(on_contact):
            contact_density_err = max(contact_density_err, float(
                np.max(np.abs(snap.density[1:][on_contact] - 1.0))))
        for atom in atoms_by_time.get(st.time, ()):
            rep = complementarity_eulerian(snap, atom)
            compl_e_ok &= rep.passed
            compl_e = max(compl_e, rep.value)
        if st.time > 0.0:
            rep = oleinik_eulerian(snap)
            ole_e_ok &= rep.passed
            ole_e.append(rep.value)
    reports.append(CheckReport(
        "eulerian_reconstruction",
        bool(mass_err <= 1e-12 and density_excess <= density_tol
             and contact_density_err <= density_tol),
        max(mass_err, density_excess, contact_density_err), density_tol,
        "mass 1, density <= 1, contact cells at density 1"))
    reports.append(CheckReport(
        "eulerian_complementarity", bool(compl_e_ok), compl_e, 1e-10,
        "pressure atoms supported in saturated cells"))
    reports.append(CheckReport(
        "eulerian_oleinik", bool(ole_e_ok), max(ole_e, default=0.0), 1.0,
        "Eulerian slope bound at sampled times"))

    w2_ok = True
    w2_val = 0.0
    if horizon > 0.0:
        for _ in range(10):
            s, t = np.sort(rng.uniform(0.0, horizon, 2))
            rep = wasserstein_time_modulus(trace, float(s), float(t))
            w2_ok &= rep["passed"]
            w2_val = max(w2_val, rep["modulus"])
    reports.append(CheckReport(
        "wasserstein_modulus", bool(w2_ok), w2_val, 0.0,
        "W2 time modulus below the velocity-integral bound"))

    suite = weak_residual_suite(trace, tol=TOL_WEAK_RESIDUAL)
    reports.append(CheckReport(
        "weak_residuals", suite["passed"], suite["max_abs_residual"], suite["tolerance"],
        f"mass/momentum residuals over {suite['count']} test functions"))
    return reports


def cone_oracle_sweep(n_values, instances: int, rng: np.random.Generator,
                      tol: float = 1e-9) -> dict:
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
        "passed": bool(worst <= tol and worst_cert <= 1e-10),
        "max_abs_deviation": worst,
        "max_certificate_violation": worst_cert,
        "instances": total,
        "tolerance": tol,
    }
