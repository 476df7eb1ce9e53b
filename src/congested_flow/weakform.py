"""Weak-form residuals of the constrained dynamics in mass coordinates.

The mass and momentum balances are tested against compactly supported C^2
functions along Lagrangian trajectories.  Between events every trajectory
is affine in time, X(t, w) = A(w) + (t - t0) V(w), so by the chain rule

    int_a^b (phi_t + V phi_x)(t, X(t, w)) dt = phi(b, X(b, w)) - phi(a, X(a, w))

exactly, and the space-time integral of each balance telescopes into
boundary terms along the characteristics: at every segment boundary t_k,
the terms (1, V) phi(t_k, X) of the segment ending there minus those of the
segment starting there.  No time quadrature is needed.  The integral in w
is a sum over particles for piecewise-constant (discrete) data and
Gauss-Legendre on affine (closed-form) data, split where X(t_k, .) crosses
the test function's spatial knots so the integrand is polynomial between
the cuts.  The atomic pressure enters either through the exact telescoped
sum over contacts (discrete runs) or through a piecewise-polynomial profile
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

# exact for the degree <= 9 integrands phi(t, X(w)) * V(w) between knot cuts
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


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
    """Discrete pressure atom at time t: positions x of a merged range and the
    multiplier jumps dlam on its contacts (dlam[j] between x[j] and x[j + 1])."""

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


def _gl_nodes(w0, w1, x0, x1, xknots):
    """Gauss-Legendre nodes and weights on (w0, w1), cut where the affine map
    through (w0, x0), (w1, x1) crosses a knot."""
    cuts = np.unique([w0, w1] + [r for k in xknots
                                 if (r := _affine_roots(w0, w1, x0, x1, k)) is not None])
    h = np.diff(cuts)[:, None] / 2.0
    mid = (cuts[1:] + cuts[:-1])[:, None] / 2.0
    return (mid + h * _GL_NODES).ravel(), (h * _GL_WEIGHTS).ravel()


def _side_nodes(seg: Segment, t: float, xknots):
    """(x, v, weight) at time t with sum(weight * f(x, v)) = int f(X(t, w), V(w)) dw.

    Exact for f = phi(t, .) * (1, V): one node per piece on piecewise-constant
    data, knot-cut Gauss-Legendre on affine data.
    """
    dt = t - seg.t0
    if seg.pc:
        return seg.A0 + dt * seg.V0, seg.V0, np.diff(seg.wb)
    xs, vs, ws = [], [], []
    for j in range(seg.wb.size - 1):
        w0, w1 = seg.wb[j], seg.wb[j + 1]
        x0, x1 = seg.A0[j] + dt * seg.V0[j], seg.A1[j] + dt * seg.V1[j]
        wn, wt = _gl_nodes(w0, w1, x0, x1, xknots)
        lam = (wn - w0) / (w1 - w0)
        xs.append(x0 + lam * (x1 - x0))
        vs.append(seg.V0[j] + lam * (seg.V1[j] - seg.V0[j]))
        ws.append(wt)
    return np.concatenate(xs), np.concatenate(vs), np.concatenate(ws)


def _compared(left: Segment, right: Segment | None) -> bool:
    """Whether a boundary's two sides are compared entry by entry (same discrete grid)."""
    return (right is not None and left.pc and right.pc
            and np.array_equal(left.wb, right.wb))


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

    # -- boundary terms ------------------------------------------------------

    def _boundaries(self):
        """(t_k, segment ending at t_k, segment starting at t_k or None) for k >= 1."""
        segs = self.segments
        return [(s.t1, s, nxt) for s, nxt in zip(segs, segs[1:] + [None])]

    def _compared_jumps(self):
        """Entries whose (X, V) differ across a compared boundary.

        Returns (t, x_left, v_left, x_right, v_right, mass) over all such
        entries; an entry with equal data on both sides contributes exactly
        zero to every boundary term and is left out.
        """
        parts = []
        for t, left, right in self._boundaries():
            if not _compared(left, right):
                continue
            xl, vl, m = _side_nodes(left, t, ())
            xr, vr, _ = _side_nodes(right, t, ())
            idx = np.flatnonzero((xl != xr) | (vl != vr))
            parts.append((np.full(idx.size, t), xl[idx], vl[idx], xr[idx], vr[idx], m[idx]))
        if not parts:
            return tuple(np.zeros(0) for _ in range(6))
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _side_terms(self, xknots):
        """Nodes (t, x, v, signed weight) of every boundary side not compared
        entry by entry: + for the segment ending at t_k, - for the one starting."""
        parts = []
        for t, left, right in self._boundaries():
            if _compared(left, right):
                continue
            for seg, sign in ((left, 1.0), (right, -1.0)):
                if seg is not None:
                    x, v, w = _side_nodes(seg, t, xknots)
                    parts.append((np.full(x.size, t), x, v, sign * w))
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _exact_atom_nodes(self):
        """(t, x, dlam) over all exact atoms, concatenated; dlam pairs adjacent
        x and is zero between consecutive atoms."""
        atoms = [a for a in self.atoms if isinstance(a, ExactAtom)]
        if not atoms:
            return np.zeros(0), np.zeros(0), np.zeros(0)
        t = np.concatenate([np.full(a.x.size, a.t) for a in atoms])
        x = np.concatenate([a.x for a in atoms])
        dlam = np.concatenate([np.append(a.dlam, 0.0) for a in atoms])[:-1]
        return t, x, dlam

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
                wn, wt = _gl_nodes(w0, w1, x0, x1, phi.x_knots)
                xn = x0 + (wn - w0) / (w1 - w0) * (x1 - x0)
                total += float(wt @ (phi.dx(atom.t, xn) * np.polyval(coeffs, wn)))
        return total

    # -- residuals -----------------------------------------------------------

    def family_residuals(self, fns) -> tuple[list[float], list[float]]:
        """Mass and momentum residuals (the latter with pressure) of each phi.

        With T = horizon and t_1 < ... < t_K = T the segment ends, the mass
        residual int phi(0, X(0)) dw + int int (phi_t + V phi_x)(t, X) dt dw
        is sum_k int [phi(t_k, X_L) - phi(t_k, X_R)] dw, where L and R are
        the segments ending and starting at t_k (no R at T); the initial
        datum is the first segment at t = 0, so the initial term cancels its
        start term.  The momentum residual weights the same terms by V and
        adds the pressure atoms.  Boundaries between piecewise-constant
        segments on one mass grid are compared entry by entry and phi is
        evaluated only where X or V differ; on a valid discrete trace these
        are the merged ranges of the events.  Each member's residuals are
        computed from its own evaluations alone.
        """
        fns = list(fns)
        for phi in fns:
            if phi.support_end > self.horizon:
                raise InputDomainError("test function must vanish before the trace horizon")
        jt, xl, vl, xr, vr, jm = self._compared_jumps()
        at, ax, adlam = self._exact_atom_nodes()
        profiles = [a for a in self.atoms if isinstance(a, ProfileAtom)]
        sides = {}
        mass = []
        mom = []
        for phi in fns:
            if phi.x_knots not in sides:
                sides[phi.x_knots] = self._side_terms(phi.x_knots)
            st, sx, sv, sw = sides[phi.x_knots]
            fl = phi(jt, xl)
            fr = phi(jt, xr)
            fs = phi(st, sx)
            mass.append(float(jm @ (fl - fr)) + float(sw @ fs))
            pressure = float(adlam @ np.diff(phi(at, ax)))
            pressure += sum(self._profile_atom_term(phi, a) for a in profiles)
            mom.append(float(jm @ (vl * fl - vr * fr)) + float((sw * sv) @ fs) + pressure)
        return mass, mom


def weak_form_of_trace(trace) -> LagrangianWeakForm:
    """Weak form of a discrete run: piecewise-constant fields, exact atoms.

    ``trace`` is a fields.FieldTrace.  One segment per inter-event window:
    its velocities are the previous window's, reset to ``post_velocity`` on
    the merged range of each event at its start, and its positions are the
    previous window's end positions as the segment evaluates them, so every
    position is bitwise continuous in time.  One exact atom per merge event,
    at the merged range's positions x_left + two_r * offset.
    """
    tl = trace.timeline
    events = tl.events
    x, v = tl.initial.positions, tl.initial.velocities
    segments = []
    ev = 0
    for t0, t1 in zip(trace.times[:-1].tolist(), trace.times[1:].tolist()):
        if ev < len(events) and events[ev].time <= t0:
            v = v.copy()
            while ev < len(events) and events[ev].time <= t0:
                lo, hi = events[ev].index_range
                v[lo:hi + 1] = events[ev].post_velocity
                ev += 1
        segments.append(Segment(t0, t1, trace.w_grid, x, x, v, v, True))
        x = x + (t1 - t0) * v
    atoms = [ExactAtom(e.time, e.positions(trace.two_r), e.jump_values) for e in events]
    return LagrangianWeakForm(segments, atoms)
