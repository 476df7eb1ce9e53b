"""Weak-form residuals of the constrained dynamics in mass coordinates.

The mass and momentum balances are tested against compactly supported C^2
functions along Lagrangian trajectories.  Between events every trajectory
is affine in time, X(t, w) = A(w) + (t - t0) V(w), so by the chain rule

    int_a^b (phi_t + V phi_x)(t, X(t, w)) dt = phi(b, X(b, w)) - phi(a, X(a, w))

exactly, and the space-time integral of each balance telescopes into
boundary terms along the characteristics: at every segment boundary t_k,
the terms (1, V) phi(t_k, X) of the segment ending there minus those of the
segment starting there.  No time quadrature is needed.

A closed-form solution (``LagrangianWeakForm``) has affine data in w: the
integral in w is Gauss-Legendre, split where X(t_k, .) crosses the test
function's spatial knots so the integrand is polynomial between the cuts,
and its pressure is a piecewise-polynomial profile.  A discrete run
(``EventWeakForm``) is read off its events: its trajectories are continuous,
so only the velocity jumps at the events and their pressure atoms remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import EventRecord
from .errors import InputDomainError
from .piecewise import PiecewiseField, sorted_distinct
from .testfunctions import TestFunction

__all__ = [
    "Segment",
    "ProfileAtom",
    "LagrangianWeakForm",
    "EventWeakForm",
    "weak_form_of_trace",
]

# exact for the degree <= 9 integrands phi(t, X(w)) * V(w) between knot cuts
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


@dataclass(frozen=True)
class Segment:
    """One inter-event window: X(t, w) = A(w) + (t - t0) V(w), piecewise in w.

    A and V are affine per piece with the given endpoint values.  V is both
    the advected velocity and the slope of X.
    """

    t0: float
    t1: float
    wb: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    V0: np.ndarray
    V1: np.ndarray


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
    cuts = sorted_distinct([w0, w1] + [r for k in xknots
                                         if (r := _affine_roots(w0, w1, x0, x1, k)) is not None])
    h = np.diff(cuts)[:, None] / 2.0
    mid = (cuts[1:] + cuts[:-1])[:, None] / 2.0
    return (mid + h * _GL_NODES).ravel(), (h * _GL_WEIGHTS).ravel()


def _side_nodes(seg: Segment, t: float, xknots):
    """(x, v, weight) at time t with sum(weight * f(x, v)) = int f(X(t, w), V(w)) dw.

    Exact for f = phi(t, .) * (1, V): knot-cut Gauss-Legendre per piece.
    """
    dt = t - seg.t0
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


def _supported(fns, horizon: float) -> list:
    """The test functions as a list; raises unless each vanishes by the horizon."""
    fns = list(fns)
    if any(phi.support_end > horizon for phi in fns):
        raise InputDomainError("test function must vanish before the trace horizon")
    return fns


class LagrangianWeakForm:
    """Residual evaluator over a sequence of affine segments plus profile atoms."""

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
        """Smallest and largest position X over all segments.

        X is nondecreasing in w and affine in t on each segment, so its
        extremes sit at the first and the last piece at the segment's ends.
        """
        lo, hi = np.inf, -np.inf
        for s in self.segments:
            dt = s.t1 - s.t0
            lo = min(lo, float(s.A0[0]), float(s.A0[0] + dt * s.V0[0]))
            hi = max(hi, float(s.A1[-1]), float(s.A1[-1] + dt * s.V1[-1]))
        return lo, hi

    # -- boundary terms ------------------------------------------------------

    def _side_terms(self, xknots):
        """Nodes (t, x, v, signed weight) of every segment boundary side: + for
        the segment ending at t_k, - for the one starting there (none at T)."""
        parts = []
        segs = self.segments
        for left, right in zip(segs, segs[1:] + [None]):
            t = left.t1
            for seg, sign in ((left, 1.0), (right, -1.0)):
                if seg is not None:
                    x, v, w = _side_nodes(seg, t, xknots)
                    parts.append((np.full(x.size, t), x, v, sign * w))
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _profile_atom_term(self, phi: TestFunction, atom: ProfileAtom) -> float:
        total = 0.0
        pos = atom.position
        for w_lo, w_hi, coeffs in atom.profile:
            grid = sorted_distinct(np.concatenate((np.clip(pos.breaks, w_lo, w_hi), [w_lo, w_hi])))
            for w0, w1 in zip(grid, grid[1:]):
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
        adds the pressure atoms.  The quadrature nodes of each knot pair are
        built once and shared; each member is evaluated on them by itself,
        so its residuals do not depend on the rest of the family.
        """
        fns = _supported(fns, self.horizon)
        sides = {}
        mass = []
        mom = []
        for phi in fns:
            if phi.x_knots not in sides:
                sides[phi.x_knots] = self._side_terms(phi.x_knots)
            st, sx, sv, sw = sides[phi.x_knots]
            fs = phi(st, sx)
            mass.append(float(sw @ fs))
            pressure = sum(self._profile_atom_term(phi, a) for a in self.atoms)
            mom.append(float((sw * sv) @ fs) + pressure)
        return mass, mom


class EventWeakForm:
    """Weak form of a discrete run, read off its events (an ``EventRecord``).

    In mass coordinates particle i carries mass 1/n along x_i(t), which is
    continuous and affine between events with slope u_i.  So the mass
    residual int phi(0, X(0)) dw + int int (phi_t + V phi_x)(t, X) dt dw
    telescopes to int phi(T, X(T)) dw, and phi vanishes at the horizon T
    (support_end <= T): every mass residual is exactly 0.0.  The momentum
    residual telescopes the same way into the jumps of V, which happen at
    the events only.  An event at t_e with merged range lo..hi adds

        (1/n) sum_i (u_pre_i - post) phi(t_e, x_pre_i)
            + sum_j jump_j (phi(t_e, x_{j+1}) - phi(t_e, x_j)),

    the velocity jump against its pressure atom, whose jumps jump_j sit on
    the contacts between x_j and x_{j+1}.  Nothing else contributes: X and V
    are continuous off the merged ranges, the initial term cancels the
    first window's start term, and the horizon term vanishes.  Cost O(sum
    of merged range sizes) per member.

    x is the event's own positions (``EventTimeline.event_positions``, read
    by ``EventRecord``); x_pre is the left limit of the trajectories, each
    pre-event block at its own left edge from its maker's data
    (``EventRecord.x_pre``).  With x in both terms, summation by parts
    would cancel them for any positions, so a wrong event position would
    pass.
    """

    def __init__(self, record: EventRecord):
        self.record = record
        self.horizon = record.timeline.horizon
        self._t = np.repeat(record.times, record.sizes)
        self._du = (record.u_pre - np.repeat(record.post, record.sizes)) / record.timeline.n

    def spatial_extent(self) -> tuple[float, float]:
        """Smallest and largest position: the end particles at t = 0, after
        each event and at the horizon (``EventRecord.ends``)."""
        ends = self.record.ends
        return float(np.min(ends[:, 0])), float(np.max(ends[:, 1]))

    def family_residuals(self, fns) -> tuple[list[float], list[float]]:
        """Mass residuals (exactly 0.0) and momentum residuals of each phi.

        Each distinct time window is evaluated once on the event times and
        each distinct spatial bump once on x and once on x_pre; a member's
        values are then window(t) * bump(x), the expression of
        ``TestFunction.__call__``, so they do not depend on the rest of the
        family.
        """
        fns = _supported(fns, self.horizon)
        rec, t = self.record, self._t
        windows = {w: w(t) for w in {phi.window for phi in fns}}
        mom = [0.0] * len(fns)
        # bump by bump: only one bump's two evaluations, each Σ merged long, live at once
        for bump in {phi.bump for phi in fns}:
            at_x, at_pre = bump(rec.x), bump(rec.x_pre)
            for k, phi in enumerate(fns):
                if phi.bump == bump:
                    f = windows[phi.window] * at_x
                    pressure = float(rec.jumps @ rec.diff(f))
                    mom[k] = float(self._du @ (windows[phi.window] * at_pre)) + pressure
        return [0.0] * len(fns), mom


def weak_form_of_trace(trace) -> EventWeakForm:
    """Weak form of a discrete run (``trace`` a fields.FieldTrace), read off
    its timeline's ``EventRecord``."""
    return EventWeakForm(EventRecord(trace.timeline))
