"""Macroscopic initial data: rearrangement, quantile sampling, validation.

An Eulerian datum is a density below the packing threshold (piecewise
constant, compact support, unit mass) plus a velocity.  The monotone
rearrangement is the generalized inverse of the cumulative distribution,
computed in closed form and evaluated with the left-limit convention at
breakpoints, consistent with the inf-based pseudo-inverse.  Quantile
sampling at mass fractions i/n yields particle data that are feasible for
the canonical spacing constraint by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import SpacingCone
from .dynamics import _admissible
from .errors import AdmissibilityError, InputDomainError
from .piecewise import PiecewiseField, merge_breaks, sorted_distinct
from .tolerances import MASS_TOL, QUANTILE_BREAK_ULPS, SATURATED_SHEAR_TOL, SLOPE_RTOL, \
    X_JUMP_TOL

__all__ = [
    "DensityPiece",
    "MacroscopicDatum",
    "rearrangement_from_density",
    "cdf_from_density",
    "datum_from_eulerian",
    "quantile_sample",
    "discretization_convergence",
]


@dataclass(frozen=True)
class DensityPiece:
    """Constant density ``value`` on the interval [a, b)."""

    a: float
    b: float
    value: float


def _check_density(pieces) -> list[DensityPiece]:
    if not pieces:
        raise InputDomainError("density needs at least one piece")
    out = []
    prev_b = -np.inf
    for k, p in enumerate(pieces):
        p = p if isinstance(p, DensityPiece) else DensityPiece(*p)
        if not (p.b > p.a):
            raise InputDomainError(f"density piece {k}: empty interval [{p.a}, {p.b})")
        if p.a < prev_b:
            raise InputDomainError(f"density piece {k}: overlaps the previous piece")
        if not 0.0 <= p.value <= 1.0:
            raise InputDomainError(
                f"density piece {k}: value {p.value} outside [0, 1], 1 the packing threshold")
        prev_b = p.b
        if p.value > 0.0:
            out.append(p)
    mass = sum(p.value * (p.b - p.a) for p in out)
    if abs(mass - 1.0) > MASS_TOL:
        raise InputDomainError(f"density mass is {mass!r}, expected 1")
    return out


def cdf_from_density(pieces) -> PiecewiseField:
    """Cumulative distribution as a continuous piecewise-affine field in x.

    The inverse of the rearrangement: its nodes left[j] and right[j] at the
    masses breaks[j] and breaks[j + 1], the left one dropped where it meets
    the node before, so that each vacuum gap is one flat piece.
    """
    inv = rearrangement_from_density(pieces)
    xs = np.column_stack((inv.left, inv.right)).ravel()
    masses = np.column_stack((inv.breaks[:-1], inv.breaks[1:])).ravel()
    keep = np.ones(xs.size, dtype=bool)
    keep[2::2] = inv.left[1:] > inv.right[:-1]
    return PiecewiseField.from_nodes(xs[keep], masses[keep])


def rearrangement_from_density(pieces) -> PiecewiseField:
    """Monotone rearrangement: generalized inverse of the CDF on (0, 1).

    Piecewise affine with slope 1/value >= 1 on each mass piece; vacuum gaps
    between density pieces become jumps.  Left-continuous by the inf-based
    pseudo-inverse convention.
    """
    ps = _check_density(pieces)
    w = [0.0]
    left = []
    right = []
    acc = 0.0
    for p in ps:
        acc += p.value * (p.b - p.a)
        w.append(acc)
        left.append(p.a)
        right.append(p.b)
    w[-1] = 1.0
    return PiecewiseField(np.array(w), np.array(left), np.array(right))


def _saturated_components(x: PiecewiseField, slope_min: float = 1.0):
    """First and last cells (lows, highs) of the congested components of x.

    A component is a maximal run of cells lo..hi where x has slope
    ``slope_min`` within relative SLOPE_RTOL and does not jump (by more than
    X_JUMP_TOL): a jump of x is a vacuum gap, which splits two components.
    """
    saturated = np.abs(x.slopes() - slope_min) <= SLOPE_RTOL * abs(slope_min)
    # joined[j]: cell j continues the run of cell j - 1
    joined = np.zeros(saturated.size + 1, dtype=bool)
    joined[1:-1] = saturated[1:] & saturated[:-1] & (np.abs(x.jumps()) <= X_JUMP_TOL)
    return np.flatnonzero(saturated & ~joined[:-1]), np.flatnonzero(saturated & ~joined[1:])


def _saturated_runs(x_map: PiecewiseField, u_map: PiecewiseField, slope_min: float = 1.0):
    """Merged grid, U resampled on it, and the congested components (lo, hi)."""
    grid = merge_breaks(x_map.breaks, u_map.breaks)
    u = u_map.resampled(grid)
    lows, highs = _saturated_components(x_map.resampled(grid), slope_min)
    return grid, u, list(zip(lows.tolist(), highs.tolist()))


@dataclass(frozen=True)
class MacroscopicDatum:
    """Monotone rearrangement and Lagrangian velocity on the mass interval (0,1).

    Invariants checked at construction: the rearrangement is nondecreasing
    with slope >= 1, and the velocity is constant on every saturated piece
    (slope exactly 1), which is what makes quantile samples admissible.
    """

    x0_map: PiecewiseField
    u0_map: PiecewiseField

    def __post_init__(self):
        xm = self.x0_map
        if xm.breaks[0] != 0.0 or xm.breaks[-1] != 1.0:
            raise InputDomainError("x0_map must live on the mass interval (0, 1)")
        if np.any(xm.slopes() < 1.0 - SLOPE_RTOL):
            raise InputDomainError("rearrangement slope below 1: density above threshold")
        if np.any(xm.right < xm.left) or (xm.npieces > 1 and np.any(xm.jumps() < -X_JUMP_TOL)):
            raise InputDomainError("rearrangement must be nondecreasing")
        um = self.u0_map
        if um.breaks[0] != 0.0 or um.breaks[-1] != 1.0:
            raise InputDomainError("u0_map must live on the mass interval (0, 1)")
        self._check_saturated_shear()

    def _check_saturated_shear(self):
        grid, u, runs = _saturated_runs(self.x0_map, self.u0_map)
        for lo, hi in runs:
            for j in range(lo, hi + 1):
                if abs(u.right[j] - u.left[j]) > SATURATED_SHEAR_TOL:
                    raise AdmissibilityError(
                        f"velocity varies on the saturated piece ({grid[j]}, {grid[j+1]})"
                    )
                if j > lo and abs(u.left[j] - u.right[j - 1]) > SATURATED_SHEAR_TOL:
                    raise AdmissibilityError(
                        f"velocity jumps inside the saturated region at w={grid[j]}"
                    )

    @property
    def support(self) -> tuple[float, float]:
        return float(self.x0_map.left[0]), float(self.x0_map.right[-1])


def datum_from_eulerian(density_pieces, velocity_x: PiecewiseField) -> MacroscopicDatum:
    """Datum from an Eulerian density and an Eulerian velocity profile u0(x).

    The Lagrangian velocity is the exact composition u0(X0(w)): breakpoints
    of u0 are pulled back through the CDF, so the result is again piecewise
    affine with no sampling error.  Raises InputDomainError unless u0 is
    given on the whole support of the density.
    """
    x0_map = rearrangement_from_density(density_pieces)
    lo, hi = float(x0_map.left[0]), float(x0_map.right[-1])
    v_lo, v_hi = float(velocity_x.breaks[0]), float(velocity_x.breaks[-1])
    if lo < v_lo or hi > v_hi:
        gap = (lo, min(v_lo, hi)) if lo < v_lo else (max(v_hi, lo), hi)
        raise InputDomainError(f"the velocity is given on [{v_lo}, {v_hi}], so not on "
                               f"[{gap[0]}, {gap[1]}] of the density's support [{lo}, {hi}]")
    cdf = cdf_from_density(density_pieces)
    pulled = np.array([cdf(b) for b in velocity_x.breaks])
    wb = sorted_distinct(np.concatenate((x0_map.breaks, np.clip(pulled, 0.0, 1.0))))
    wb = wb[(wb >= 0.0) & (wb <= 1.0)]
    x_res = x0_map.resampled(wb)
    u_left = velocity_x(x_res.left, side="right")
    u_right = velocity_x(x_res.right, side="left")
    u0_map = PiecewiseField(wb, np.atleast_1d(u_left), np.atleast_1d(u_right))
    return MacroscopicDatum(x0_map, u0_map)


def quantile_sample(datum: MacroscopicDatum, n: int):
    """Sample n particles at the mass fractions i/n, i = 1..n.

    Returns (x0, u0, cone) with the canonical cone two_r = 1/n.  Gaps are
    at least 1/n because the rearrangement has slope >= 1.  Pairs in contact
    lie on one saturated piece, whose velocity the datum invariant makes
    constant.  A quantile within QUANTILE_BREAK_ULPS ulps of an end of a
    saturated piece, where X0 is continuous, takes that piece's velocity
    read at the end: the left-limit convention would give it the velocity of
    the neighbouring piece while it touches a particle of the saturated one.
    The sample is verified post hoc; a mismatch raises AdmissibilityError.
    """
    if n < 2:
        raise InputDomainError(f"need n >= 2 particles, got {n}")
    w = np.arange(1, n + 1) / n
    xm, um = datum.x0_map, datum.u0_map
    x0 = xm(w, side="left")
    u0 = um(w, side="left")
    lows, highs = _saturated_components(xm)
    x_jumps = np.concatenate(([np.inf], xm.jumps(), [np.inf]))  # the ends 0 and 1 border no piece
    snap = QUANTILE_BREAK_ULPS * np.finfo(float).eps
    # the left-limit convention reads the wrong piece at w <= b for a
    # saturated piece that starts at b, and at w > b for one that ends at b
    for k, side in ((lows, "right"), (highs + 1, "left")):
        b = xm.breaks[k]
        i = np.rint(b * n).astype(int)
        wi = i / n
        near = (i >= 1) & (np.abs(x_jumps[k]) <= X_JUMP_TOL) & (np.abs(wi - b) <= snap) \
            & ((wi <= b) if side == "right" else (wi > b))
        u0[i[near] - 1] = um(b[near], side=side)
    cone = SpacingCone.canonical(n)
    x0, u0 = _admissible(x0, u0, cone)
    return x0, u0, cone


def discretization_convergence(datum: MacroscopicDatum, n_list) -> list[dict]:
    """L2 errors of the piecewise-constant sampled interpolants against the datum."""
    rows = []
    for n in n_list:
        x0, u0, _ = quantile_sample(datum, n)
        breaks = np.arange(n + 1) / n
        xn = PiecewiseField.constant(breaks, x0)
        un = PiecewiseField.constant(breaks, u0)
        rows.append({
            "n": int(n),
            "err_x_l2": xn.distance(datum.x0_map, "L2"),
            "err_u_l2": un.distance(datum.u0_map, "L2"),
        })
    return rows
