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

from .dynamics import CheckReport, MicroState, PressureMeasure, max_slope_ratio
from .cone import SpacingCone
from .errors import InputDomainError
from .fields import DeltaPadding, FieldTrace
from .piecewise import PiecewiseField
from .testfunctions import build_test_family
from .weakform import weak_form_of_trace

__all__ = [
    "EulerianSnapshot",
    "EulerianAtom",
    "EulerianPressure",
    "snapshot",
    "pressure_pushforward",
    "weak_residual_suite",
    "complementarity_eulerian",
    "oleinik_eulerian",
    "wasserstein_time_modulus",
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


@dataclass(frozen=True)
class EulerianPressure:
    atoms: tuple[EulerianAtom, ...]


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


def pressure_pushforward(measure: PressureMeasure, trace: FieldTrace) -> EulerianPressure:
    """Transport the multiplier jumps to space: contact j covers (x[j-1], x[j]).

    The lineal density on a contact interval equals the jump itself, which
    is the value making the Dirac pressure term balance the velocity jump in
    the weak momentum equation; supports land in saturated cells only.
    Each atom is read off its event's merged range: O(sum of merged sizes).
    """
    atoms = []
    for e in measure.atoms:
        k = np.flatnonzero(e.jump_values != 0.0)
        if k.size == 0:
            continue
        x = e.positions(trace.two_r)
        atoms.append(EulerianAtom(
            time=e.time,
            contacts=e.index_range[0] + 1 + k,
            x_left=x[k],
            x_right=x[k + 1],
            lineal_density=e.jump_values[k],
        ))
    return EulerianPressure(tuple(atoms))


def weak_residual_suite(trace: FieldTrace, test_fns=None, tol: float = 1e-8) -> dict:
    """Mass and momentum residuals over a family of test functions.

    With ``test_fns=None`` a deterministic 12-function family covering the
    trace's spatial extent is built.
    """
    form = weak_form_of_trace(trace)
    if test_fns is None:
        lo, hi = form.spatial_extent()
        test_fns = build_test_family(lo - 0.05 * (hi - lo + 1.0),
                                     hi + 0.05 * (hi - lo + 1.0), form.horizon)
    mass, mom = form.family_residuals(test_fns)
    worst = max(max(abs(r) for r in mass), max(abs(r) for r in mom))
    return {
        "passed": bool(worst <= tol),
        "max_abs_residual": worst,
        "mass_residuals": mass,
        "momentum_residuals": mom,
        "tolerance": tol,
        "count": len(test_fns),
    }


def complementarity_eulerian(snap: EulerianSnapshot, atom: EulerianAtom | None,
                             tol: float = 1e-10) -> CheckReport:
    """Pressure lives only where the density saturates: max (1 - rho) on support."""
    if atom is None or atom.contacts.size == 0:
        return CheckReport("complementarity_eulerian", True, 0.0, tol, "no pressure")
    gap = float(np.max(np.abs(1.0 - snap.density[atom.contacts])))
    return CheckReport("complementarity_eulerian", gap <= tol, gap, tol,
                       f"max |1 - rho| over {atom.contacts.size} support cells")


def oleinik_eulerian(snap: EulerianSnapshot) -> CheckReport:
    """Eulerian one-sided slope bound t * du/dx < 1 across adjacent particles."""
    if snap.time <= 0.0:
        raise InputDomainError("the estimate is vacuous at t = 0")
    ratio = max_slope_ratio(snap.time, snap.edges[1:], snap.velocity)
    return CheckReport("oleinik_eulerian", ratio < 1.0, ratio, 1.0,
                       f"max t*du/dx = {ratio:.6f}")


def wasserstein_time_modulus(trace: FieldTrace, s: float, t: float) -> dict:
    """L2 modulus ||X(t) - X(s)|| and the velocity-integral bound.

    The modulus dominates the quadratic Wasserstein distance between the two
    snapshots (coupling through the common mass variable); it must not
    exceed (t - s) times the sup of the interpolated velocity L2 norm.
    """
    if not 0.0 <= s <= t <= trace.timeline.horizon:
        raise InputDomainError("need 0 <= s <= t <= horizon")
    w = trace.w_grid
    if s == t:
        return {"passed": True, "modulus": 0.0, "bound": 0.0}
    ev = [float(te) for te in trace.timeline.event_times() if s < te <= t]
    snaps = trace.snapshots([s] + ev + [t])
    modulus = PiecewiseField.from_nodes(w, snaps[-1].x_nodes - snaps[0].x_nodes).l2_norm()
    sup_u = max(sn.velocity_field(w).l2_norm() for sn in snaps[:-1])
    bound = (t - s) * sup_u
    return {
        "passed": bool(modulus <= bound * (1.0 + 1e-12) + 1e-15),
        "modulus": modulus,
        "bound": bound,
        "sup_velocity_l2": sup_u,
    }
