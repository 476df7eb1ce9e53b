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

from .dynamics import EventTimeline, pressure_measure
from .errors import InputDomainError, InvariantViolationError
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


@dataclass(frozen=True)
class TraceSnapshot:
    """Nodal data of all interpolants at one instant."""

    time: float
    x_nodes: np.ndarray   # length n+1, node 0 = fictitious particle
    u: np.ndarray         # length n, cluster velocities
    lam: np.ndarray       # length n+1, lam[0] = lam[n] = 0


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
        self.atoms = [(e.time, e.dense_jump(self.n).lambdas) for e in timeline.events]
        # the fictitious particle copies the first cluster velocity, so its
        # gap is exactly two_r + delta forever; it can never collide
        if not padding.delta > 0.0:
            raise InvariantViolationError("fictitious particle would touch the first one")

    @property
    def slope_min(self) -> float:
        """Lower bound two_r * n for the affine position slope (1 canonically)."""
        return self.two_r * self.n

    def _pad(self, positions: np.ndarray) -> np.ndarray:
        x0_f = positions[0] - self.two_r - self.padding.delta
        return np.concatenate(([x0_f], positions))

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
            yield TraceSnapshot(state.time, self._pad(state.positions),
                                state.velocities.copy(), lam.copy())

    def snapshot(self, t: float) -> TraceSnapshot:
        (snap,) = self.snapshots([t])
        return snap

    # -- interpolated fields at a time instant ------------------------------

    def position_field(self, t: float, kind: str = "affine") -> PiecewiseField:
        snap = self.snapshot(t)
        if kind == "affine":
            return PiecewiseField.from_nodes(self.w_grid, snap.x_nodes)
        if kind == "pc":
            return PiecewiseField.constant(self.w_grid, snap.x_nodes[1:])
        raise InputDomainError(f"unknown kind {kind!r}")

    def velocity_field(self, t: float, kind: str = "affine") -> PiecewiseField:
        snap = self.snapshot(t)
        if kind == "affine":
            return PiecewiseField.from_nodes(
                self.w_grid, np.concatenate(([snap.u[0]], snap.u)))
        if kind == "pc":
            return PiecewiseField.constant(self.w_grid, snap.u)
        raise InputDomainError(f"unknown kind {kind!r}")

    def multiplier_field(self, t: float, kind: str = "affine") -> PiecewiseField:
        snap = self.snapshot(t)
        if kind == "affine":
            return PiecewiseField.from_nodes(self.w_grid, snap.lam)
        if kind == "pc":
            return PiecewiseField.constant(self.w_grid, snap.lam[:-1])
        raise InputDomainError(f"unknown kind {kind!r}")


def build_fields(timeline: EventTimeline, padding: DeltaPadding = DeltaPadding()) -> FieldTrace:
    """Lift a timeline to its Lagrangian interpolations (lazy views)."""
    return FieldTrace(timeline, padding)


def verify_discrete_pde(trace: FieldTrace, tol: float = 1e-10) -> dict:
    """Residuals of the interpolated evolution system.

    Between events (checked at interval midpoints) the velocity must equal
    the initial one corrected by the multiplier gradient, cell by cell; at
    each event the velocity jump must balance the jump of the multiplier
    gradient; both exclusion relations (multipliers and atoms against the
    position slope) must vanish on every cell.
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
    events = trace.timeline.events
    if events:
        ev_times = [e.time for e in events]
        pre_states = trace.timeline.states_at(np.nextafter(ev_times, -np.inf))
        post_states = trace.timeline.states_at(ev_times)
        for e, pre, post in zip(events, pre_states, post_states):
            du = post.velocities - pre.velocities
            dlam = e.dense_jump(n).lambdas
            resid = du + n * np.diff(dlam)
            order2 = max(order2, float(np.max(np.abs(resid))))
            slopes = n * np.diff(trace._pad(post.positions))
            atom_compl = max(atom_compl, float(
                np.max(np.abs((slopes[1:] - slope_min) * dlam[1:-1]))))
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
    dx = np.diff(snap.x_nodes)
    du = np.diff(np.concatenate(([snap.u[0]], snap.u)))
    ratio = float(np.max(t * du / dx))
    l1 = float(np.sum(np.abs(du)))
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
            fx = PiecewiseField.from_nodes(tr.w_grid, snap.x_nodes)
            fu = PiecewiseField.from_nodes(tr.w_grid, np.concatenate(([snap.u[0]], snap.u)))
            fl = PiecewiseField.from_nodes(tr.w_grid, snap.lam)
            gx = PiecewiseField.from_nodes(ref.w_grid, rsnap.x_nodes)
            gu = PiecewiseField.from_nodes(ref.w_grid, np.concatenate(([rsnap.u[0]], rsnap.u)))
            gl = PiecewiseField.from_nodes(ref.w_grid, rsnap.lam)
            dx = fx.distance(gx, "L2")
            du = fu.distance(gu, "L2")
            dl = fl.distance(gl, "L2")
            sup_x, sup_u, sup_lam = max(sup_x, dx), max(sup_u, du), max(sup_lam, dl)
            if snap.time > 0.0:
                dun = np.diff(np.concatenate(([snap.u[0]], snap.u)))
                ole = float(np.max(snap.time * dun / np.diff(snap.x_nodes)))
            else:
                ole = 0.0
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
