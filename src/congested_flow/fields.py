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

from .dynamics import EventTimeline, max_slope_ratio, pressure_measure
from .errors import InputDomainError
from .initdata import MacroscopicDatum, quantile_sample
from .piecewise import PiecewiseField

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
        grid = np.concatenate(([0.0], timeline.event_times(), [timeline.horizon]))
        self.times = np.unique(grid[(grid >= 0.0) & (grid <= timeline.horizon)])

    @property
    def atoms(self) -> list[tuple[float, np.ndarray]]:
        """Export view of the pressure atoms: (t_e, dense jump profile lam[0..n]).

        Built on each read, O(n) per event.  It stays dense for its readers, the
        selection profile CSV and the benchmark's ``fields.atom_floats`` count,
        which take whole profiles on the mass grid; checks read the sparse events.
        """
        atoms = []
        for e in self.timeline.events:
            lam = np.zeros(self.n + 1)
            lo, _ = e.index_range
            lam[lo + 1:lo + 1 + e.jump_values.size] = e.jump_values
            atoms.append((e.time, lam))
        return atoms

    @property
    def slope_min(self) -> float:
        """Lower bound two_r * n for the affine position slope (1 canonically)."""
        return self.two_r * self.n

    def snapshots(self, times) -> list[TraceSnapshot]:
        return list(self.iter_snapshots(times))

    def iter_snapshots(self, times):
        """Nodal snapshots at ascending times, one incremental pass."""
        times = [float(t) for t in times]
        lam = np.zeros(self.n + 1)
        ev = 0
        events = self.timeline.events
        for state in self.timeline.iter_states(times):
            while ev < len(events) and events[ev].time <= state.time:
                e = events[ev]
                lo, _ = e.index_range
                lam[lo + 1:lo + 1 + e.jump_values.size] += e.jump_values
                ev += 1
            yield TraceSnapshot(state.time, self.padding.pad(state.positions, self.two_r),
                                state.velocities.copy(), lam.copy())

    def snapshot(self, t: float) -> TraceSnapshot:
        (snap,) = self.snapshots([t])
        return snap

    # -- interpolated fields at a time instant ------------------------------

    def position_field(self, t: float, kind: str = "affine") -> PiecewiseField:
        return self.snapshot(t).position_field(self.w_grid, kind)

    def velocity_field(self, t: float, kind: str = "affine") -> PiecewiseField:
        return self.snapshot(t).velocity_field(self.w_grid, kind)

    def multiplier_field(self, t: float, kind: str = "affine") -> PiecewiseField:
        return self.snapshot(t).multiplier_field(self.w_grid, kind)


def build_fields(timeline: EventTimeline, padding: DeltaPadding = DeltaPadding()) -> FieldTrace:
    """Lift a timeline to its Lagrangian interpolations (lazy views)."""
    return FieldTrace(timeline, padding)


def verify_discrete_pde(trace: FieldTrace, tol: float = 1e-10) -> dict:
    """Residuals of the interpolated evolution system.

    Between events (checked at interval midpoints) the velocity must equal
    the initial one corrected by the multiplier gradient, cell by cell; at
    each event the velocity jump on its merged range must balance the jump
    of the multiplier gradient there; both exclusion relations (multipliers
    and atoms against the position slope) must vanish on every cell.
    Midpoints cost O(n) each, one snapshot at a time; the events cost
    O(n + sum of merged range sizes), one running velocity array in all.
    """
    n = trace.n
    u0 = trace.timeline.u0
    slope_min = trace.slope_min
    times = trace.times
    mids = (times[:-1] + times[1:]) / 2.0
    order1 = 0.0
    compl = 0.0
    for snap in trace.iter_snapshots(mids):
        resid = snap.u - (u0 - n * np.diff(snap.lam))
        order1 = max(order1, float(np.max(np.abs(resid))))
        slopes = n * np.diff(snap.x_nodes)
        # lam[j] pairs with cell j+1: slopes[1:] against lam[1:-1]
        compl = max(compl, float(np.max(np.abs((slopes[1:] - slope_min) * snap.lam[1:-1]))))
    order2 = 0.0
    atom_compl = 0.0
    u = trace.timeline.initial.velocities.copy()
    for e in trace.timeline.events:
        lo, hi = e.index_range
        jump_grad = np.diff(e.jump_values, prepend=0.0, append=0.0)
        resid = (e.post_velocity - u[lo:hi + 1]) + n * jump_grad
        order2 = max(order2, float(np.max(np.abs(resid))))
        u[lo:hi + 1] = e.post_velocity
        slopes = n * np.diff(e.positions(trace.two_r))
        atom_compl = max(atom_compl, float(
            np.max(np.abs((slopes - slope_min) * e.jump_values))))
    passed = max(order1, compl, order2, atom_compl) <= tol
    return {
        "passed": bool(passed),
        "order1_max_residual": order1,
        "order2_max_residual": order2,
        "multiplier_exclusion_max": compl,
        "atom_exclusion_max": atom_compl,
        "tolerance": tol,
    }


def oleinik_field_check(trace: FieldTrace, t: float) -> dict:
    """Field-level one-sided slope bound and the L1 velocity-gradient bound."""
    if t <= 0.0:
        raise InputDomainError("the estimate is vacuous at t = 0")
    snap = trace.snapshot(t)
    u_nodes = snap.u_nodes
    ratio = max_slope_ratio(t, snap.x_nodes, u_nodes)
    l1 = float(np.sum(np.abs(np.diff(u_nodes))))
    spread = float(snap.x_nodes[-1] - snap.x_nodes[0])
    bound = 2.0 * spread / t - float(snap.u[-1] - snap.u[0])
    return {
        "passed": bool(ratio < 1.0 and l1 <= bound * (1.0 + 1e-12) + 1e-12),
        "max_ratio": ratio,
        "gradient_l1": l1,
        "gradient_l1_bound": bound,
    }


def pressure_mass_bound(trace: FieldTrace) -> float:
    """Total mass of the interpolated pressure atoms over (0,1) and time."""
    return pressure_measure(trace.timeline).total_mass()


def _run_single(datum: MacroscopicDatum, n: int, horizon: float,
                padding: DeltaPadding) -> FieldTrace:
    from .dynamics import evolve

    x0, u0, cone = quantile_sample(datum, n)
    return build_fields(evolve(x0, u0, cone, horizon), padding)


def convergence_study(datum: MacroscopicDatum, n_list, horizon: float,
                      sample_times, padding: DeltaPadding = DeltaPadding(),
                      threads: int = 1) -> dict:
    """Self-convergence sweep against the largest-n run as reference.

    For each n, runs the full pipeline and reports, per sample time, the L2
    distances of the affine position/velocity/multiplier interpolants to the
    reference, plus the run's pressure mass, the position BV and the Oleinik
    ratio.  Rows are ordered by (n, t), deterministically.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if len(n_list) < 1:
        raise InputDomainError("need at least one n")
    sample_times = sorted(float(t) for t in sample_times)
    if any(t < 0.0 or t > horizon for t in sample_times):
        raise InputDomainError("sample times must lie in [0, horizon]")

    def make(n):
        return _run_single(datum, n, horizon, padding)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            traces = dict(zip(n_list, ex.map(make, n_list)))
    else:
        traces = {n: make(n) for n in n_list}

    n_ref = n_list[-1]
    ref = traces[n_ref]
    ref_snaps = ref.snapshots(sample_times)
    rows = []
    sup_dist = {}
    for n in n_list:
        tr = traces[n]
        mass = pressure_mass_bound(tr)
        sup_x = sup_u = sup_lam = 0.0
        for snap, rsnap in zip(tr.snapshots(sample_times), ref_snaps):
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
    fit = None
    small = [n for n in n_list if n != n_ref and sup_dist[n]["X"] > 0.0]
    if len(small) >= 2:
        logs_n = np.log([float(n) for n in small])
        logs_d = np.log([sup_dist[n]["X"] for n in small])
        slope, _ = np.polyfit(logs_n, logs_d, 1)
        fit = {"empirical_order_X": float(-slope)}
    return {"rows": rows, "sup": sup_dist, "reference_n": n_ref, "rate_fit": fit}
