"""Lagrangian interpolations of a discrete run and the n -> infinity harness.

A timeline is lifted to fields on the mass interval (0, 1): piecewise
constant and continuous piecewise affine interpolants of positions,
velocities and multipliers, with a fictitious particle padding the left
boundary at a fixed extra gap delta.  The affine position interpolant has
slope >= two_r * n (= 1 in the canonical scaling) on every cell.

Index conventions (0-based): affine nodes sit at w = k/n with node 0 the
fictitious particle; multiplier lam[j] belongs to the contact between
particles j-1 and j and therefore pairs with cell j+1 of the affine
position interpolant, whose slope measures exactly that gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import EventRecord, EventTimeline, MicroState, evolve, max_slope_ratio, \
    multipliers_at, pressure_measure, worst_of
from .errors import InputDomainError
from .initdata import MacroscopicDatum, quantile_sample
from .piecewise import PiecewiseField, Resampling, l2_norm_of_pieces, merge_breaks
from .tolerances import DISCRETE_PDE_TOL, GRADIENT_L1_ATOL, GRADIENT_L1_RTOL

__all__ = [
    "DeltaPadding",
    "FieldTrace",
    "build_fields",
    "verify_discrete_pde",
    "oleinik_field_check",
    "pressure_mass_bound",
    "convergence_study",
]


@dataclass(frozen=True)
class DeltaPadding:
    """Gap of the fictitious left particle; must stay fixed across an n-sweep."""

    delta: float = 0.1

    def __post_init__(self):
        if not self.delta > 0.0:
            raise InputDomainError("padding gap must be positive")

    def pad(self, positions: np.ndarray, two_r: float) -> np.ndarray:
        """Prepend the fictitious particle, two_r + delta left of the first one."""
        return np.concatenate(([positions[0] - two_r - self.delta], positions))


def _interpolant(w_grid: np.ndarray, nodes: np.ndarray, cells: np.ndarray,
                 kind: str) -> PiecewiseField:
    if kind == "affine":
        return PiecewiseField.from_nodes(w_grid, nodes)
    if kind == "pc":
        return PiecewiseField.constant(w_grid, cells)
    raise InputDomainError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class TraceSnapshot:
    """Nodal data of all interpolants at one instant."""

    time: float
    x_nodes: np.ndarray   # length n+1, node 0 = fictitious particle
    u: np.ndarray         # length n, cluster velocities
    lam: np.ndarray       # length n+1, lam[0] = lam[n] = 0

    @property
    def u_nodes(self) -> np.ndarray:
        """Affine velocity nodes, length n+1: the fictitious particle moves with the first."""
        return np.concatenate(([self.u[0]], self.u))

    # -- interpolated fields on the mass grid w_grid (length n+1) ------------

    def position_field(self, w_grid: np.ndarray, kind: str = "affine") -> PiecewiseField:
        return _interpolant(w_grid, self.x_nodes, self.x_nodes[1:], kind)

    def velocity_field(self, w_grid: np.ndarray, kind: str = "affine") -> PiecewiseField:
        return _interpolant(w_grid, self.u_nodes, self.u, kind)

    def multiplier_field(self, w_grid: np.ndarray, kind: str = "affine") -> PiecewiseField:
        return _interpolant(w_grid, self.lam, self.lam[:-1], kind)


class FieldTrace:
    """Event-aligned interpolated view of a timeline.

    Snapshots are produced lazily (the timeline stays the single source of
    truth); between events positions interpolate linearly in time and all
    other nodal data are constant.
    """

    def __init__(self, timeline: EventTimeline, padding: DeltaPadding = DeltaPadding()):
        self.timeline = timeline
        self.padding = padding
        self.n = timeline.n
        self.two_r = timeline.cone.two_r
        self.w_grid = np.arange(self.n + 1) / self.n

    def jump_profile(self, k: int) -> np.ndarray:
        """Dense multiplier jump lam[0..n] of event k on the mass grid, read
        off the timeline's lo, hi, jump_off and jumps columns: O(n)."""
        tl = self.timeline
        lo, hi = int(tl.lo[k]), int(tl.hi[k])
        jumps = tl.jumps[tl.jump_off[k]:tl.jump_off[k + 1]]
        return np.concatenate((np.zeros(lo + 1), jumps, np.zeros(self.n - hi)))

    @property
    def atoms(self) -> list[tuple[float, np.ndarray]]:
        """(t_e, dense jump profile) of every event, by index, built on each
        read.

        O(n) per event; the benchmark counts its floats.  Checks read the
        sparse columns.
        """
        return [(t, self.jump_profile(k)) for k, t in enumerate(self.timeline.times.tolist())]

    @property
    def slope_min(self) -> float:
        """Lower bound two_r * n for the affine position slope (1 canonically)."""
        return self.two_r * self.n

    def iter_snapshots(self, times):
        """Nodal snapshots at ascending times, one per state of
        ``EventTimeline.iter_states``, each with the multipliers of its state
        (``multipliers_at``)."""
        u0 = self.timeline.u0
        for state in self.timeline.iter_states(times):
            yield TraceSnapshot(state.time, self.padding.pad(state.positions, self.two_r),
                                state.velocities, multipliers_at(state, u0))


def build_fields(timeline: EventTimeline, padding: DeltaPadding = DeltaPadding()) -> FieldTrace:
    """Lift a timeline to its Lagrangian interpolations (lazy views)."""
    return FieldTrace(timeline, padding)


def verify_discrete_pde(record: EventRecord) -> dict:
    """Residuals of the interpolated evolution system of an ``EventRecord``'s
    timeline, event by event, within DISCRETE_PDE_TOL.

    Between events the velocity must equal the initial one corrected by the
    multiplier gradient, cell by cell (order 1); at each event the velocity
    jump on its merged range must balance the jump of the multiplier
    gradient there (order 2); both exclusion relations (multipliers and atoms
    against the position slope) must vanish on every cell.

    Between events u and lam are constant in time, and an event changes them
    only on its merged range lo..hi, where u becomes its post velocity.  So
    the order-1 residual is checked once over all n entries with lam = 0,
    then on lo..hi after each event, against ``steps(lam)``; the order-2
    residual reads ``steps(jumps)``.  lam is zero off the contacts, and
    inside a cluster the position slope is n * two_r at every instant up to
    rounding; so the multiplier exclusion is checked on the contacts
    lo+1..hi of each event against ``diff`` of the event's positions
    (``EventTimeline.event_positions``).  All of it is one vectorised pass
    over the record: O(n + sum of merged range sizes), with no
    state or snapshot.  A NaN residual fails the check.
    """
    rec, timeline = record, record.timeline
    n = timeline.n
    order1 = worst_of(np.abs(timeline.initial.velocities - timeline.u0))
    post = np.repeat(rec.post, rec.sizes)
    order2 = worst_of(np.abs((post - rec.u_pre) + n * rec.steps(rec.jumps)))
    resid = post - (timeline.u0[rec.index] - n * rec.steps(rec.lam))
    order1 = worst_of((order1, worst_of(np.abs(resid))))
    slack = n * rec.diff(rec.x) - timeline.cone.two_r * n
    compl = worst_of(np.abs(slack * rec.lam))
    atom_compl = worst_of(np.abs(slack * rec.jumps))
    passed = worst_of((order1, compl, order2, atom_compl)) <= DISCRETE_PDE_TOL
    return {
        "passed": bool(passed),
        "order1_max_residual": order1,
        "order2_max_residual": order2,
        "multiplier_exclusion_max": compl,
        "atom_exclusion_max": atom_compl,
        "tolerance": DISCRETE_PDE_TOL,
    }


def oleinik_field_check(trace: FieldTrace, state: MicroState) -> dict:
    """Field-level one-sided slope bound and the L1 velocity-gradient bound of a state.

    The positions are padded as in the trace's snapshots; no state is built.
    """
    t = state.time
    if t <= 0.0:
        raise InputDomainError("the estimate is vacuous at t = 0")
    x_nodes = trace.padding.pad(state.positions, trace.two_r)
    u = state.velocities
    u_nodes = np.concatenate(([u[0]], u))
    ratio = max_slope_ratio(t, x_nodes, u_nodes)
    l1 = float(np.sum(np.abs(np.diff(u_nodes))))
    spread = float(x_nodes[-1] - x_nodes[0])
    bound = 2.0 * spread / t - float(u[-1] - u[0])
    return {
        "passed": bool(ratio < 1.0
                       and l1 <= bound * (1.0 + GRADIENT_L1_RTOL) + GRADIENT_L1_ATOL),
        "max_ratio": ratio,
        "gradient_l1": l1,
        "gradient_l1_bound": bound,
    }


def pressure_mass_bound(trace: FieldTrace) -> float:
    """Total mass of the interpolated pressure atoms over (0,1) and time:
    the sum of every jump of ``pressure_measure``, divided by n."""
    return float(np.sum(pressure_measure(trace.timeline).jumps)) / trace.n


def _run_single(datum: MacroscopicDatum, n: int, horizon: float,
                padding: DeltaPadding) -> FieldTrace:
    """One run: sample ``datum`` at n particles, evolve to ``horizon``, lift to fields.

    u0, the cone and the events are read off ``trace.timeline``.
    """
    x0, u0, cone = quantile_sample(datum, n)
    return build_fields(evolve(x0, u0, cone, horizon), padding)


def convergence_study(datum: MacroscopicDatum, n_list, horizon: float,
                      sample_times, padding: DeltaPadding = DeltaPadding()) -> dict:
    """Self-convergence sweep against the largest-n run as reference.

    For each n, runs the full pipeline and reports, per sample time, the L2
    distances of the affine position/velocity/multiplier interpolants to the
    reference, plus the run's pressure mass, the position BV and the Oleinik
    ratio.  Rows are ordered by (n, t), deterministically.  The reference
    runs first and once; every other n is run, compared and released in
    turn, and the reference's own rows carry distance 0.

    The comparison works on nodal values.  Per n below the reference it
    builds one union grid with the reference and one node lookup of the
    run's grid in it; a second lookup, of the reference grid, only if the
    grids do not nest (when n divides the reference n, k/n and km/(nm)
    round to the same double, so the union is the reference grid).  Each
    (n, t, field) distance is then O(|grid|): a gather, a subtraction of the
    reference's nodes, and the exact L2 norm of the pieces.  Nothing is built
    on the reference grid: no field object and no resampled reference.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if len(n_list) < 1:
        raise InputDomainError("need at least one n")
    sample_times = sorted(float(t) for t in sample_times)
    if not all(0.0 <= t <= horizon for t in sample_times):
        raise InputDomainError("sample times must lie in [0, horizon]")

    n_ref = n_list[-1]
    ref = _run_single(datum, n_ref, horizon, padding)
    ref_snaps = list(ref.iter_snapshots(sample_times))
    ref_nodes = [(s.x_nodes, s.u_nodes, s.lam) for s in ref_snaps]
    rows = []
    sup_dist = {}

    def add_row(n, mass, snap, dx, du, dl):
        ole = (max_slope_ratio(snap.time, snap.x_nodes, snap.u_nodes)
               if snap.time > 0.0 else 0.0)
        rows.append({
            "n": n,
            "t": snap.time,
            "dist_X_L2": dx,
            "dist_U_L2": du,
            "dist_Lambda_L2": dl,
            "pressure_mass": mass,
            # the affine position interpolant is continuous: its BV is its in-piece variation
            "bv_X": float(np.sum(np.abs(np.diff(snap.x_nodes)))),
            "oleinik_max": ole,
        })

    for n in n_list[:-1]:
        tr = _run_single(datum, n, horizon, padding)
        mass = pressure_mass_bound(tr)
        grid = merge_breaks(tr.w_grid, ref.w_grid)
        h = np.diff(grid)
        on_grid = Resampling.of(tr.w_grid, grid).at_nodes()
        ref_on_grid = (None if grid.size == ref.w_grid.size
                       else Resampling.of(ref.w_grid, grid).at_nodes())
        sup_x = sup_u = sup_lam = 0.0
        for snap, nodes_ref in zip(tr.iter_snapshots(sample_times), ref_nodes):
            dists = []
            for nodes, r in zip((snap.x_nodes, snap.u_nodes, snap.lam), nodes_ref):
                d = on_grid(nodes) - (r if ref_on_grid is None else ref_on_grid(r))
                dists.append(l2_norm_of_pieces(h, d[:-1], d[1:]))
            dx, du, dl = dists
            sup_x, sup_u, sup_lam = max(sup_x, dx), max(sup_u, du), max(sup_lam, dl)
            add_row(n, mass, snap, dx, du, dl)
        sup_dist[n] = {"X": sup_x, "U": sup_u, "Lambda": sup_lam, "pressure_mass": mass}
    # the reference against itself: distance 0.0, which the identity gather gives exactly
    mass = pressure_mass_bound(ref)
    for snap in ref_snaps:
        add_row(n_ref, mass, snap, 0.0, 0.0, 0.0)
    sup_dist[n_ref] = {"X": 0.0, "U": 0.0, "Lambda": 0.0, "pressure_mass": mass}
    fit = None
    small = [n for n in n_list if n != n_ref and sup_dist[n]["X"] > 0.0]
    if len(small) >= 2:
        logs_n = np.log([float(n) for n in small])
        logs_d = np.log([sup_dist[n]["X"] for n in small])
        slope, _ = np.polyfit(logs_n, logs_d, 1)
        fit = {"empirical_order_X": float(-slope)}
    return {"rows": rows, "sup": sup_dist, "reference_n": n_ref, "rate_fit": fit}
