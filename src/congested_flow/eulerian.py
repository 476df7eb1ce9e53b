"""Eulerian reconstruction (density, momentum, pressure) and its checks.

The density is the push-forward of the mass measure through the affine
position interpolant: one cell per particle gap, including the fictitious
left gap so that cell masses sum to one.  A gap of width dx carries density
two_r / dx, which equals 1/(n dx) in the canonical scaling and is exactly 1
on contact cells.  Pressure atoms transport the multiplier jumps to the
contact intervals; weak residuals are evaluated in mass coordinates where
the cell velocity representative is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import CheckReport, EventTimeline, MicroState, max_slope_ratio, worst_of
from .cone import SpacingCone
from .errors import InputDomainError
from .fields import DeltaPadding, FieldTrace
from .piecewise import l2_norm_of_pieces, squares_of_pieces
from .testfunctions import build_test_family
from .tolerances import TOL_COMPLEMENTARITY, TOL_WEAK_RESIDUAL, W2_ATOL, W2_RTOL
from .weakform import weak_form_of_trace

__all__ = [
    "EulerianSnapshot",
    "EulerianAtom",
    "snapshot",
    "pressure_pushforward",
    "weak_residual_suite",
    "weak_residual_report",
    "complementarity_eulerian",
    "oleinik_eulerian",
    "wasserstein_time_modulus",
    "velocity_sq",
    "velocity_l2",
    "w2_report",
]


@dataclass(frozen=True)
class EulerianSnapshot:
    """Step-function density and velocity on the line at one instant.

    Cell i spans (edges[i], edges[i+1]); edge 0 belongs to the fictitious
    particle, so the n cells carry the n particle masses.
    """

    time: float
    edges: np.ndarray
    density: np.ndarray
    velocity: np.ndarray
    two_r: float

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def total_mass(self) -> float:
        return float(np.sum(self.density * self.widths))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])


@dataclass(frozen=True)
class EulerianAtom:
    """Spatial pressure atom at one event: lineal density over contact cells."""

    time: float
    contacts: np.ndarray   # multiplier indices j; cell j of the snapshot grid
    x_left: np.ndarray
    x_right: np.ndarray
    lineal_density: np.ndarray


def snapshot(state: MicroState, cone: SpacingCone,
             padding: DeltaPadding = DeltaPadding()) -> EulerianSnapshot:
    """Push-forward density/velocity of a state, one cell per particle gap.

    The fictitious left gap (width two_r + delta, never saturated) carries
    the first particle's mass; each cell's velocity is the velocity of the
    particle at its right edge.
    """
    edges = padding.pad(state.positions, cone.two_r)
    widths = np.diff(edges)
    return EulerianSnapshot(
        time=state.time,
        edges=edges,
        density=cone.two_r / widths,
        velocity=state.velocities.copy(),
        two_r=cone.two_r,
    )


def pressure_pushforward(measure: EventTimeline) -> tuple[EulerianAtom, ...]:
    """Transport the multiplier jumps to space: contact j covers (x[j-1], x[j]).

    The lineal density on a contact interval equals the jump itself, which
    is the value making the Dirac pressure term balance the velocity jump in
    the weak momentum equation; supports land in saturated cells only.
    ``measure`` is the pressure measure, the timeline's event columns
    (``dynamics.pressure_measure``).  Each atom is read off its event's
    merged range: the jumps, and the positions from
    ``EventTimeline.event_positions``; all events in one vectorised pass
    over the columns, O(sum of merged sizes).  Events without a nonzero jump
    give no atom.
    """
    off, count = measure.jump_off, measure.times.size
    k = np.flatnonzero(measure.jumps != 0.0)
    event = np.repeat(np.arange(count), np.diff(off))[k]
    j = k - off[event]  # jump j of an event sits between its positions j and j + 1
    left, right = measure.event_positions(event, j), measure.event_positions(event, j + 1)
    contacts = measure.lo[event] + 1 + j
    bounds = np.concatenate(([0], np.cumsum(np.bincount(event, minlength=count)))).tolist()
    return tuple(
        EulerianAtom(t, contacts[a:b], left[a:b], right[a:b], measure.jumps[k[a:b]])
        for t, a, b in zip(measure.times.tolist(), bounds, bounds[1:]) if b > a)


def weak_residual_suite(trace: FieldTrace) -> dict:
    """Mass and momentum residuals of a discrete run (``weak_residual_report``
    of ``weak_form_of_trace``)."""
    return weak_residual_report(weak_form_of_trace(trace))


def weak_residual_report(form) -> dict:
    """Mass and momentum residuals of a weak form over a deterministic
    12-function family covering its spatial extent, held to TOL_WEAK_RESIDUAL."""
    lo, hi = form.spatial_extent()
    test_fns = build_test_family(lo - 0.05 * (hi - lo + 1.0),
                                 hi + 0.05 * (hi - lo + 1.0), form.horizon)
    mass, mom = form.family_residuals(test_fns)
    worst = worst_of(np.abs(mass + mom))
    return {
        "passed": bool(worst <= TOL_WEAK_RESIDUAL),
        "max_abs_residual": worst,
        "mass_residuals": mass,
        "momentum_residuals": mom,
        "tolerance": TOL_WEAK_RESIDUAL,
        "count": len(test_fns),
    }


def complementarity_eulerian(snap: EulerianSnapshot, atom: EulerianAtom | None) -> CheckReport:
    """Pressure lives only where the density saturates: max |1 - rho| on the
    support, within TOL_COMPLEMENTARITY."""
    if atom is None or atom.contacts.size == 0:
        return CheckReport("complementarity_eulerian", True, 0.0, TOL_COMPLEMENTARITY,
                           "no pressure")
    gap = float(np.max(np.abs(1.0 - snap.density[atom.contacts])))
    return CheckReport("complementarity_eulerian", gap <= TOL_COMPLEMENTARITY, gap,
                       TOL_COMPLEMENTARITY,
                       f"max |1 - rho| over {atom.contacts.size} support cells")


def oleinik_eulerian(snap: EulerianSnapshot) -> CheckReport:
    """Eulerian one-sided slope bound t * du/dx < 1 across adjacent particles."""
    if snap.time <= 0.0:
        raise InputDomainError("the estimate is vacuous at t = 0")
    ratio = max_slope_ratio(snap.time, snap.edges[1:], snap.velocity)
    return CheckReport("oleinik_eulerian", ratio < 1.0, ratio, 1.0,
                       f"max t*du/dx = {ratio:.6f}")


def velocity_sq(h: np.ndarray, u: np.ndarray) -> float:
    """Squared L2 norm of the affine velocity interpolant of u on cells of
    widths h: the fictitious node moves with the first particle."""
    return float(np.sum(squares_of_pieces(h, np.concatenate(([u[0]], u[:-1])), u)))


def velocity_l2(h: np.ndarray, u: np.ndarray) -> float:
    """L2 norm of the affine velocity interpolant (``velocity_sq``)."""
    return float(np.sqrt(velocity_sq(h, u)))


def w2_report(h: np.ndarray, x_s: np.ndarray, x_t: np.ndarray, s: float, t: float,
              sup_u: float) -> dict:
    """The W2 time modulus of padded positions x(s), x(t) against (t - s) sup_u."""
    d = x_t - x_s
    modulus = l2_norm_of_pieces(h, d[:-1], d[1:])
    bound = (t - s) * sup_u
    return {
        "passed": bool(modulus <= bound * (1.0 + W2_RTOL) + W2_ATOL),
        "modulus": modulus,
        "bound": bound,
        "sup_velocity_l2": sup_u,
    }


def wasserstein_time_modulus(trace: FieldTrace, s: float, t: float) -> dict:
    """L2 modulus ||X(t) - X(s)|| and the velocity-integral bound.

    The modulus dominates the quadratic Wasserstein distance between the two
    snapshots (coupling through the common mass variable); it must not
    exceed (t - s) times the sup of the interpolated velocity L2 norm.
    The velocity is constant between events, so the sup runs over s and the
    events in (s, t]; the snapshots stream, O(n) memory however many events.
    ``run_battery`` takes the sup off the record instead: the norm at s
    plus each event's step (``verification._event_local``).  For s = t
    the modulus and the bound are 0.
    """
    if not 0.0 <= s <= t <= trace.timeline.horizon:
        raise InputDomainError("need 0 <= s <= t <= horizon")
    h = np.diff(trace.w_grid)
    times = [s] + [te for te in trace.timeline.times.tolist() if s < te <= t] + [t]
    for k, snap in enumerate(trace.iter_snapshots(times)):
        if k == 0:
            x_first = snap.x_nodes
            sup_u = velocity_l2(h, snap.u)
        elif k < len(times) - 1:
            sup_u = worst_of((sup_u, velocity_l2(h, snap.u)))
    return w2_report(h, x_first, snap.x_nodes, s, t, sup_u)
