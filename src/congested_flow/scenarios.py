"""Closed-form reference scenarios and the selection/uniqueness apparatus.

The two-block datum (two saturated unit-density blocks closing at speed 2,
separated by a gap eta) collides at t* = eta/2.  Two continuations solve the
second-order system: the sticky branch (blocks freeze, velocity 0) and a
rebound branch (velocity 2w - 1 afterwards); both carry one admissible
pressure atom at t*.  The simulated particle limit selects the sticky
branch, realizing the velocity-projection principle; the first-order
formulation is contractive and therefore unique.

The sticky atom profile is derived from the momentum balance with vanishing
boundary values, giving min(w, 1 - w) >= 0; the rebound profile is
(2w - w^2, 1 - w^2) on the two halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import evolve
from .errors import InputDomainError
from .fields import DeltaPadding, _run_single
from .initdata import MacroscopicDatum, _saturated_runs, rearrangement_from_density
from .piecewise import PiecewiseField
from .tolerances import CONTRACTION_TOL, PROJECTION_IDENTITY_TOL, SELECTION_SPEED_TOL, \
    STICKY_DISTANCE_TOL
from .weakform import LagrangianWeakForm, ProfileAtom, Segment

__all__ = [
    "AnalyticSolution",
    "two_block_datum",
    "sticky_solution",
    "rebound_solution",
    "selection_test",
    "first_order_contraction_test",
    "macroscopic_projection",
]


def two_block_datum(eta: float) -> MacroscopicDatum:
    """Two saturated blocks [0, 1/2] and [1/2 + eta, 1 + eta] closing at speed 2."""
    if not 0.0 < eta < 1.0:
        raise InputDomainError(f"block gap must satisfy 0 < eta < 1, got {eta}")
    x0_map = rearrangement_from_density([(0.0, 0.5, 1.0), (0.5 + eta, 1.0 + eta, 1.0)])
    u0_map = PiecewiseField.constant(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
    return MacroscopicDatum(x0_map, u0_map)


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form continuation of the two-block collision.

    ``branch`` is "sticky" or "rebound".  Fields are piecewise affine in the
    mass variable; the single pressure atom sits at t* where the whole
    configuration is saturated.  Raises InputDomainError unless 0 < eta < 1;
    the rebound branch needs eta < 1 for the one-sided slope condition to
    hold at all times.
    """

    branch: str
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise InputDomainError(f"block gap must satisfy 0 < eta < 1, got {self.eta}")

    @property
    def tstar(self) -> float:
        return self.eta / 2.0

    # -- fields --------------------------------------------------------------

    def position_field(self, t: float) -> PiecewiseField:
        if t < self.tstar:
            w = np.array([0.0, 0.5, 1.0])
            return PiecewiseField(
                w,
                np.array([0.0 + t, 0.5 + self.eta - t]),
                np.array([0.5 + t, 1.0 + self.eta - t]),
            )
        w = np.array([0.0, 1.0])
        if self.branch == "sticky":
            return PiecewiseField(w, np.array([self.eta / 2.0]),
                                  np.array([1.0 + self.eta / 2.0]))
        dt = t - self.tstar
        return PiecewiseField(w, np.array([self.eta / 2.0 - dt]),
                              np.array([1.0 + self.eta / 2.0 + dt]))

    def velocity_field(self, t: float) -> PiecewiseField:
        if t < self.tstar:
            return PiecewiseField.constant(np.array([0.0, 0.5, 1.0]),
                                           np.array([1.0, -1.0]))
        w = np.array([0.0, 1.0])
        if self.branch == "sticky":
            return PiecewiseField.constant(w, np.array([0.0]))
        return PiecewiseField(w, np.array([-1.0]), np.array([1.0]))

    # -- pressure atom ---------------------------------------------------------

    def atom_profile_pieces(self) -> tuple[tuple[float, float, tuple[float, ...]], ...]:
        if self.branch == "sticky":
            return ((0.0, 0.5, (1.0, 0.0)), (0.5, 1.0, (-1.0, 1.0)))
        return ((0.0, 0.5, (-1.0, 2.0, 0.0)), (0.5, 1.0, (-1.0, 0.0, 1.0)))

    def atom_profile(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        out = np.zeros_like(w)
        for w0, w1, coeffs in self.atom_profile_pieces():
            mask = (w >= w0) & (w <= w1)
            out = np.where(mask, np.polyval(coeffs, w), out)
        return out

    def profile_min(self) -> float:
        w = np.linspace(0.0, 1.0, 4097)
        return float(np.min(self.atom_profile(w)))

    # -- admissibility checks ----------------------------------------------------

    def oleinik_ratio(self, t: float) -> float:
        """Max of t * dU/dX over pieces and interface jumps (must stay < 1)."""
        if t <= 0.0:
            raise InputDomainError("the estimate is vacuous at t = 0")
        X = self.position_field(t)
        U = self.velocity_field(t)
        ratios = [t * du / dx for du, dx in zip(U.slopes(), X.slopes()) if dx > 0.0]
        if X.npieces > 1:
            for ju, jx in zip(U.jumps(), X.jumps()):
                if jx > 0.0:
                    ratios.append(t * ju / jx)
        return float(max(ratios))

    def complementarity_max(self) -> float:
        """Max |(dX/dw - 1) * profile| at the atom instant (exactly zero)."""
        X = self.position_field(self.tstar)
        slopes = X.slopes()
        w_mid = (X.breaks[:-1] + X.breaks[1:]) / 2.0
        return float(np.max(np.abs((slopes - 1.0) * self.atom_profile(w_mid))))

    # -- weak form ----------------------------------------------------------------

    def weak_form(self, horizon: float) -> LagrangianWeakForm:
        """The two segments (free flight, then after t*) and the atom, read off the fields."""
        if horizon <= self.tstar:
            raise InputDomainError("horizon must pass the collision time")
        segments = []
        for t0, t1 in ((0.0, self.tstar), (self.tstar, horizon)):
            x, v = self.position_field(t0), self.velocity_field(t0)
            segments.append(Segment(t0, t1, x.breaks, x.left, x.right, v.left, v.right))
        atom = ProfileAtom(self.tstar, self.position_field(self.tstar),
                           self.atom_profile_pieces())
        return LagrangianWeakForm(segments, [atom])


def sticky_solution(eta: float) -> AnalyticSolution:
    """Perfectly inelastic continuation: blocks freeze at the collision."""
    return AnalyticSolution("sticky", eta)


def rebound_solution(eta: float) -> AnalyticSolution:
    """Rebound continuation with post-collision velocity 2w - 1."""
    return AnalyticSolution("rebound", eta)


def macroscopic_projection(x_field: PiecewiseField, u0_field: PiecewiseField,
                           slope_min: float = 1.0,
                           cluster_closure: bool = False) -> PiecewiseField:
    """Project a velocity onto the subspace rigid on congested components.

    Components are maximal runs of cells where the position slope equals
    ``slope_min`` within relative SLOPE_RTOL and the position does not jump
    (a jump is a vacuum gap between two components); on each, the velocity
    is replaced by its mass average.  ``cluster_closure`` additionally absorbs
    the cell left of each run unless that cell ends another run: on a
    discrete uniform grid a run of k saturated cells is a cluster of k+1
    particles whose first particle's mass sits in that extra cell.
    """
    grid, u, runs = _saturated_runs(x_field, u0_field, slope_min)
    left = u.left.copy()
    right = u.right.copy()
    prev_k = -1
    for j, k in runs:
        lo = j - 1 if (cluster_closure and j - 1 > prev_k) else j
        prev_k = k
        h = grid[lo + 1:k + 2] - grid[lo:k + 1]
        mean = float(np.sum(h * (u.left[lo:k + 1] + u.right[lo:k + 1]) / 2.0)
                     / np.sum(h))
        left[lo:k + 1] = mean
        right[lo:k + 1] = mean
    return PiecewiseField(grid, left, right)


def selection_test(eta: float, n: int, horizon: float | None = None,
                   padding: DeltaPadding = DeltaPadding()) -> dict:
    """Run the particle system on the two-block datum; the sticky branch wins.

    Checks, at sample times past the collision: discrete velocities vanish,
    the L2 distance to the rebound velocity field stays above half the
    rebound norm, the distance to the sticky field is at rounding level, and
    the congested-projection of the initial velocity reproduces the
    simulated velocity (cluster-mean identity).
    """
    if n % 2 != 0:
        raise InputDomainError("need an even particle count for the symmetric split")
    datum = two_block_datum(eta)
    tstar = eta / 2.0
    horizon = horizon if horizon is not None else 2.0 * tstar + 0.5
    trace = _run_single(datum, n, horizon, padding)
    timeline = trace.timeline
    sticky = sticky_solution(eta)
    rebound = rebound_solution(eta)
    times = [tstar + k * (horizon - tstar) / 4.0 for k in (1, 2, 3)]
    rebound_norm = np.sqrt(1.0 / 3.0)  # L2 norm of 2w - 1
    max_speed = 0.0
    min_rebound_dist = np.inf
    max_sticky_dist = 0.0
    max_projection_err = 0.0
    w_grid = trace.w_grid
    u0_pc = PiecewiseField.constant(w_grid, timeline.u0)
    for snap in trace.iter_snapshots(times):
        max_speed = max(max_speed, float(np.max(np.abs(snap.u))))
        u_pc = snap.velocity_field(w_grid, "pc")
        min_rebound_dist = min(min_rebound_dist,
                               u_pc.distance(rebound.velocity_field(snap.time), "L2"))
        max_sticky_dist = max(max_sticky_dist,
                              u_pc.distance(sticky.velocity_field(snap.time), "L2"))
        x_aff = snap.position_field(w_grid)
        proj = macroscopic_projection(x_aff, u0_pc, slope_min=trace.slope_min,
                                      cluster_closure=True)
        max_projection_err = max(max_projection_err,
                                 proj.distance(u_pc, "Linf"))
    final_merge = float(timeline.times[-1]) if timeline.times.size else np.nan
    return {
        "passed": bool(max_speed <= SELECTION_SPEED_TOL
                       and min_rebound_dist >= 0.5 * rebound_norm
                       and max_sticky_dist <= STICKY_DISTANCE_TOL
                       and max_projection_err <= PROJECTION_IDENTITY_TOL),
        "tstar": tstar,
        "final_merge_time": final_merge,
        "max_post_collision_speed": max_speed,
        "min_rebound_distance": float(min_rebound_dist),
        "rebound_norm": float(rebound_norm),
        "max_sticky_distance": float(max_sticky_dist),
        "max_projection_error": float(max_projection_err),
        "event_count": timeline.times.size,
        "timeline": timeline,
        "trace": trace,
    }


def first_order_contraction_test(x0: np.ndarray, u0: np.ndarray, cone,
                                 perturbation: np.ndarray, horizon: float,
                                 tol: float = CONTRACTION_TOL) -> dict:
    """Distance between a run and a position-perturbed run never grows by
    more than ``tol`` between 50 equally spaced samples of [0, horizon].

    The perturbation is masked to particles whose both gaps keep a slack
    margin, so the perturbed datum stays feasible with the same contacts.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    pert = np.asarray(perturbation, dtype=float).copy()
    gaps = np.concatenate(([np.inf], np.diff(x0), [np.inf]))
    slack = np.minimum(gaps[:-1], gaps[1:]) - cone.two_r
    pert[slack <= 2.0 * np.max(np.abs(pert))] = 0.0
    x0p = x0 + pert
    n = cone.n
    tl_a = evolve(x0, u0, cone, horizon)
    tl_b = evolve(x0p, u0, cone, horizon)
    times = np.linspace(0.0, horizon, 50)
    dists = [
        float(np.sqrt(np.sum((sa.positions - sb.positions) ** 2) / n))
        for sa, sb in zip(tl_a.iter_states(times), tl_b.iter_states(times))
    ]
    increments = np.diff(dists)
    worst = float(np.max(increments)) if increments.size else 0.0
    return {
        "passed": bool(worst <= tol),
        "max_increment": worst,
        "initial_distance": dists[0],
        "final_distance": dists[-1],
        "distances": dists,
    }
