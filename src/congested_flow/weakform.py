"""Weak-form residuals of the constrained dynamics in mass coordinates.

The mass and momentum balances are tested against compactly supported
functions by integrating along Lagrangian trajectories: between events every
trajectory is linear in time, so after splitting the quadrature at the test
function's support knots (and at the knot-crossing instants of each
trajectory) the integrand is polynomial and Gauss-Legendre integrates it
exactly.  The atomic pressure enters either through the exact telescoped sum
over contacts (discrete runs) or through a piecewise-polynomial profile
(closed-form solutions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError
from .piecewise import PiecewiseField
from .testfunctions import TestFunction

__all__ = [
    "Segment",
    "ExactAtom",
    "ProfileAtom",
    "LagrangianWeakForm",
    "weak_form_of_trace",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# equal subcells per affine piece between its split points
_WSUB = 8


@dataclass(frozen=True)
class Segment:
    """One inter-event window: X(t, w) = A(w) + (t - t0) V(w), piecewise in w.

    ``pc`` marks piecewise-constant data (A0 == A1, V0 == V1 per piece), the
    discrete case; otherwise A and V are affine per piece with the given
    endpoint values.  V is both the advected velocity and the slope of X.
    """

    t0: float
    t1: float
    wb: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    V0: np.ndarray
    V1: np.ndarray
    pc: bool


@dataclass(frozen=True)
class ExactAtom:
    """Discrete pressure atom: multiplier jumps dlam over contacts at time t."""

    t: float
    x: np.ndarray
    dlam: np.ndarray


@dataclass(frozen=True)
class ProfileAtom:
    """Closed-form pressure atom: piecewise-polynomial profile in w at time t.

    ``profile`` is a tuple of (w_lo, w_hi, coeffs) with numpy polyval
    coefficient order; ``position`` maps w to space at the atom instant.
    """

    t: float
    position: PiecewiseField
    profile: tuple[tuple[float, float, tuple[float, ...]], ...]


def _affine_roots(w0, w1, f0, f1, target):
    """Root of the affine function through (w0,f0),(w1,f1) equal to target, or None."""
    if f1 == f0:
        return None
    w = w0 + (target - f0) * (w1 - w0) / (f1 - f0)
    if w0 < w < w1:
        return float(w)
    return None


class LagrangianWeakForm:
    """Residual evaluator over a sequence of segments plus pressure atoms."""

    def __init__(self, segments, atoms=()):
        segments = list(segments)
        if not segments or segments[0].t0 != 0.0:
            raise InputDomainError("segments must start at t = 0")
        for s0, s1 in zip(segments, segments[1:]):
            if s1.t0 != s0.t1:
                raise InputDomainError("segments must tile [0, horizon]")
        self.segments = segments
        self.atoms = list(atoms)
        self.horizon = segments[-1].t1

    # -- geometry ----------------------------------------------------------

    def spatial_extent(self) -> tuple[float, float]:
        lo, hi = np.inf, -np.inf
        for s in self.segments:
            dt = s.t1 - s.t0
            for arr in (s.A0, s.A1, s.A0 + dt * s.V0, s.A1 + dt * s.V1):
                lo = min(lo, float(np.min(arr)))
                hi = max(hi, float(np.max(arr)))
        return lo, hi

    # -- quadrature scaffolding ---------------------------------------------

    def _nodes_for_segment(self, seg: Segment, a: float, b: float, xknots):
        """Per-trajectory (x at time a, v, w-weight) arrays for one window.

        Affine pieces are split wherever the trajectory position at time a or
        b crosses a knot (so knot-crossing instants enter or leave the window
        only at subcell boundaries) and where the velocity changes sign.
        """
        if seg.pc:
            return seg.A0 + (a - seg.t0) * seg.V0, seg.V0, np.diff(seg.wb)
        xs, vs, ws = [], [], []
        dt_a = a - seg.t0
        dt_b = b - seg.t0
        for j in range(seg.wb.size - 1):
            w0, w1 = seg.wb[j], seg.wb[j + 1]
            pa0, pa1 = seg.A0[j] + dt_a * seg.V0[j], seg.A1[j] + dt_a * seg.V1[j]
            pb0, pb1 = seg.A0[j] + dt_b * seg.V0[j], seg.A1[j] + dt_b * seg.V1[j]
            splits = {w0, w1}
            for k in xknots:
                for f0, f1 in ((pa0, pa1), (pb0, pb1)):
                    r = _affine_roots(w0, w1, f0, f1, k)
                    if r is not None:
                        splits.add(r)
            r = _affine_roots(w0, w1, seg.V0[j], seg.V1[j], 0.0)
            if r is not None:
                splits.add(r)
            cuts = np.sort(np.fromiter(splits, dtype=float))
            fine = np.unique(np.concatenate(
                [np.linspace(cuts[i], cuts[i + 1], _WSUB + 1) for i in range(cuts.size - 1)]))
            mid_h = (fine[1:] - fine[:-1]) / 2.0
            mid_c = (fine[1:] + fine[:-1]) / 2.0
            wn = (mid_c[:, None] + mid_h[:, None] * _GL_NODES).ravel()
            wt = (mid_h[:, None] * _GL_WEIGHTS).ravel()
            lam = (wn - w0) / (w1 - w0)
            xs.append(pa0 + lam * (pa1 - pa0))
            vs.append(seg.V0[j] + lam * (seg.V1[j] - seg.V0[j]))
            ws.append(wt)
        return np.concatenate(xs), np.concatenate(vs), np.concatenate(ws)

    @staticmethod
    def _window_nodes(a: float, b: float, x_a: np.ndarray, v: np.ndarray, xknots):
        """Quadrature nodes for the time integral along each trajectory.

        Each trajectory's window is split at its crossings of the bump
        support edges, so the integrand is polynomial on every subwindow;
        returns (t_nodes, x_nodes, weights), all of shape (m, 30).
        """
        k_lo, k_hi = xknots
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.where(v != 0.0, a + (k_lo - x_a) / v, a)
            c2 = np.where(v != 0.0, a + (k_hi - x_a) / v, a)
        c1 = np.clip(c1, a, b)
        c2 = np.clip(c2, a, b)
        lo = np.minimum(c1, c2)
        hi = np.maximum(c1, c2)
        bounds = np.stack([np.full_like(x_a, a), lo, hi, np.full_like(x_a, b)], axis=1)
        ta = bounds[:, :3, None]
        h = (bounds[:, 1:, None] - ta) / 2.0
        tn = (ta + h * (_GL_NODES + 1.0)).reshape(x_a.size, -1)
        qw = (h * _GL_WEIGHTS).reshape(x_a.size, -1)
        xn = x_a[:, None] + (tn - a) * v[:, None]
        return tn, xn, qw

    # -- residual pieces -----------------------------------------------------

    def _initial_term(self, phi: TestFunction, momentum: bool) -> float:
        seg = self.segments[0]
        if seg.pc:
            vals = phi(0.0, seg.A0)
            if momentum:
                vals = vals * seg.V0
            return float(np.sum(np.diff(seg.wb) * vals))
        x_a, v, wts = self._nodes_for_segment(seg, 0.0, 0.0, phi.x_knots)
        vals = phi(0.0, x_a)
        if momentum:
            vals = vals * v
        return float(wts @ vals)

    def _pressure_term(self, phi: TestFunction) -> float:
        total = 0.0
        for atom in self.atoms:
            if isinstance(atom, ExactAtom):
                vals = phi(atom.t, atom.x)
                total += float(np.sum(atom.dlam[1:-1] * (vals[1:] - vals[:-1])))
            else:
                total += self._profile_atom_term(phi, atom)
        return total

    def _profile_atom_term(self, phi: TestFunction, atom: ProfileAtom) -> float:
        total = 0.0
        pos = atom.position
        for w_lo, w_hi, coeffs in atom.profile:
            grid = np.unique(np.clip(pos.breaks, w_lo, w_hi))
            grid = np.unique(np.concatenate((grid, [w_lo, w_hi])))
            for w0, w1 in zip(grid, grid[1:]):
                if w1 <= w0:
                    continue
                # affine restriction of the position map on (w0, w1)
                x0 = float(pos(np.array([w0]), side="right")[0])
                x1 = float(pos(np.array([w1]), side="left")[0])
                splits = {w0, w1}
                for k in phi.x_knots:
                    r = _affine_roots(w0, w1, x0, x1, k)
                    if r is not None:
                        splits.add(r)
                cuts = np.sort(np.fromiter(splits, dtype=float))
                for c0, c1 in zip(cuts, cuts[1:]):
                    h = (c1 - c0) / 2.0
                    wn = (c0 + c1) / 2.0 + h * _GL_NODES
                    lam = (wn - w0) / (w1 - w0)
                    xn = x0 + lam * (x1 - x0)
                    g = phi.dx(atom.t, xn) * np.polyval(coeffs, wn)
                    total += h * float(g @ _GL_WEIGHTS)
        return total

    # -- residuals -----------------------------------------------------------

    def family_residuals(self, fns) -> tuple[list[float], list[float]]:
        """Mass and momentum residuals (the latter with pressure) of each phi.

        One sweep over the segments serves the whole family: time windows are
        cut at every member's time knots, and functions sharing a spatial
        bump geometry reuse the same quadrature nodes.  A member's residual
        therefore depends on the others only through the time cuts, which
        the members of ``build_test_family`` share.
        """
        fns = list(fns)
        mass = []
        mom = []
        for phi in fns:
            if phi.support_end > self.horizon:
                raise InputDomainError("test function must vanish before the trace horizon")
            mass.append(self._initial_term(phi, False))
            mom.append(self._initial_term(phi, True) + self._pressure_term(phi))
        groups: dict[tuple[float, float], list[int]] = {}
        for i, phi in enumerate(fns):
            groups.setdefault(phi.x_knots, []).append(i)
        t_knots = sorted({k for phi in fns for k in phi.t_knots})
        for seg in self.segments:
            cuts = sorted({seg.t0, seg.t1} | {k for k in t_knots if seg.t0 < k < seg.t1})
            for a, b in zip(cuts, cuts[1:]):
                for xknots, idxs in groups.items():
                    x_a, v, wts = self._nodes_for_segment(seg, a, b, xknots)
                    tn, xn, qw = self._window_nodes(a, b, x_a, v, xknots)
                    for i in idxs:
                        phi = fns[i]
                        g = phi.dt(tn, xn) + v[:, None] * phi.dx(tn, xn)
                        base = np.sum(g * qw, axis=1)
                        mass[i] += float(wts @ base)
                        mom[i] += float(wts @ (base * v))
        return mass, mom


def weak_form_of_trace(trace) -> LagrangianWeakForm:
    """Weak form of a discrete run: piecewise-constant fields, exact atoms.

    ``trace`` is a fields.FieldTrace; one segment per inter-event window with
    the post-merge state at its left end, one exact atom per merge event.
    """
    times = trace.times
    snaps = trace.snapshots(times[:-1])
    segments = []
    for k, snap in enumerate(snaps):
        x = snap.x_nodes[1:]
        segments.append(Segment(float(times[k]), float(times[k + 1]), trace.w_grid,
                                x, x, snap.u, snap.u, True))
    atom_states = trace.timeline.states_at([t for t, _ in trace.atoms])
    atoms = [ExactAtom(t, st.positions, dlam)
             for (t, dlam), st in zip(trace.atoms, atom_states)]
    return LagrangianWeakForm(segments, atoms)
