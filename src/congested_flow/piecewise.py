"""Piecewise-linear fields on an interval with exact integral arithmetic.

Every field stores per-piece endpoint values, so both piecewise-constant
interpolants (left == right values) and continuous affine interpolants are
special cases, and discontinuities across breakpoints are allowed.  All
norms, integrals and distances are closed-form per piece; no sampling
quadrature enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError

__all__ = ["NodeResampling", "PiecewiseField", "Resampling", "l2_norm_of_pieces",
           "merge_breaks", "sorted_distinct", "squares_of_pieces"]


@dataclass(frozen=True)
class PiecewiseField:
    """Field on [breaks[0], breaks[-1]] that is affine on each piece.

    ``left[j]`` and ``right[j]`` are the values at the endpoints of piece j
    = (breaks[j], breaks[j+1]); the field may jump across breakpoints.
    """

    breaks: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        if b.ndim != 1 or b.size < 2 or np.any(np.diff(b) <= 0.0):
            raise InputDomainError("breaks must be strictly increasing, length >= 2")
        if self.left.shape != (b.size - 1,) or self.right.shape != (b.size - 1,):
            raise InputDomainError("left/right must hold one value per piece")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, breaks, values) -> "PiecewiseField":
        values = np.asarray(values, dtype=float)
        return cls(np.asarray(breaks, dtype=float), values.copy(), values.copy())

    @classmethod
    def from_nodes(cls, nodes_w, nodes_v) -> "PiecewiseField":
        """Continuous piecewise-affine interpolant of nodal values."""
        w = np.asarray(nodes_w, dtype=float)
        v = np.asarray(nodes_v, dtype=float)
        return cls(w, v[:-1].copy(), v[1:].copy())

    # -- basic geometry ---------------------------------------------------

    @property
    def npieces(self) -> int:
        return self.breaks.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breaks)

    def slopes(self) -> np.ndarray:
        return (self.right - self.left) / self.widths

    def jumps(self) -> np.ndarray:
        """Discontinuities across the interior breakpoints (length npieces-1)."""
        return self.left[1:] - self.right[:-1]

    # -- evaluation --------------------------------------------------------

    def _piece_index(self, w: np.ndarray, side: str) -> np.ndarray:
        j = np.searchsorted(self.breaks, w, side="left" if side == "left" else "right") - 1
        return np.clip(j, 0, self.npieces - 1)

    def __call__(self, w, side: str = "left") -> np.ndarray:
        """Evaluate; at a breakpoint return the left (default) or right limit."""
        w = np.asarray(w, dtype=float)
        j = self._piece_index(np.atleast_1d(w), side)
        h = self.breaks[j + 1] - self.breaks[j]
        lam = (np.atleast_1d(w) - self.breaks[j]) / h
        val = self.left[j] * (1.0 - lam) + self.right[j] * lam
        return val if w.ndim else float(val[0])

    # -- exact integrals ---------------------------------------------------

    def integral(self) -> float:
        return float(np.sum(self.widths * (self.left + self.right) / 2.0))

    def l1_norm(self) -> float:
        a, b, h = self.left, self.right, self.widths
        cross = a * b < 0.0
        denom = np.where(cross, 2.0 * (np.abs(a) + np.abs(b)), 1.0)
        per = np.where(cross, (a * a + b * b) / denom, (np.abs(a) + np.abs(b)) / 2.0)
        return float(np.sum(h * per))

    def l2_norm(self) -> float:
        return l2_norm_of_pieces(self.widths, self.left, self.right)

    def linf_norm(self) -> float:
        return float(max(np.abs(self.left).max(), np.abs(self.right).max()))

    def bv(self) -> float:
        """Total variation: in-piece variation plus breakpoint jumps."""
        tv = float(np.sum(np.abs(self.right - self.left)))
        if self.npieces > 1:
            tv += float(np.sum(np.abs(self.jumps())))
        return tv

    def norm(self, which: str) -> float:
        if which == "L1":
            return self.l1_norm()
        if which == "L2":
            return self.l2_norm()
        if which == "Linf":
            return self.linf_norm()
        if which == "BV":
            return self.bv()
        raise InputDomainError(f"unknown norm {which!r}")

    # -- algebra on a common grid ------------------------------------------

    def resampled(self, new_breaks: np.ndarray) -> "PiecewiseField":
        """Same field on a refined grid; new breaks must contain the old ones.

        The piece lookup is a ``Resampling``.  Callers comparing many
        continuous affine fields on one pair of grids build its node
        evaluation (``Resampling.at_nodes``) once instead.
        """
        nb = np.asarray(new_breaks, dtype=float)
        left, right = Resampling.of(self.breaks, nb)(self.left, self.right)
        return PiecewiseField(nb, left, right)

    def __sub__(self, other: "PiecewiseField") -> "PiecewiseField":
        grid = merge_breaks(self.breaks, other.breaks)
        f = self.resampled(grid)
        g = other.resampled(grid)
        return PiecewiseField(grid, f.left - g.left, f.right - g.right)

    def distance(self, other: "PiecewiseField", which: str) -> float:
        return (self - other).norm(which)


def sorted_distinct(values) -> np.ndarray:
    """The distinct values, ascending: ``np.unique`` of finite float or of
    integer input, in the input's dtype.

    One sort and a mask of the entries that differ from their left
    neighbour, which is the sort path ``np.unique`` takes, so signed zeros
    come out alike.  ``np.unique`` itself first asks ``np.ma.is_masked``,
    whose first call imports ``numpy.ma``.
    """
    ordered = np.sort(np.asarray(values), axis=None)
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def merge_breaks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two breakpoint sets sharing the same endpoints."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a[0] != b[0] or a[-1] != b[-1]:
        raise InputDomainError("fields live on different intervals")
    return sorted_distinct(np.concatenate((a, b)))


def squares_of_pieces(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per piece, the exact squared L2 norm h (a^2 + ab + b^2) / 3 of the
    affine field with width h and endpoint values a, b."""
    return h * (a * a + a * b + b * b) / 3.0


def l2_norm_of_pieces(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Exact L2 norm of the field with piece widths h and endpoint values a, b."""
    return float(np.sqrt(np.sum(squares_of_pieces(h, a, b))))


@dataclass(frozen=True)
class Resampling:
    """Where the pieces of a refinement sit in the pieces of a coarser grid.

    New piece k lies in old piece ``j[k]``, from local coordinate ``lam_l[k]``
    to ``lam_r[k]``.  It depends on the two grids only: ``__call__`` maps the
    endpoint values of any field on the old grid onto the new pieces, and
    ``at_nodes`` the nodal values of a continuous affine one onto the new
    nodes, each at the cost of a gather.
    """

    j: np.ndarray
    lam_l: np.ndarray
    lam_r: np.ndarray

    @classmethod
    def of(cls, old_breaks: np.ndarray, new_breaks: np.ndarray) -> "Resampling":
        """Lookup of ``new_breaks`` (which must contain ``old_breaks``) in ``old_breaks``."""
        mid = (new_breaks[:-1] + new_breaks[1:]) / 2.0
        j = np.clip(np.searchsorted(old_breaks, mid, side="right") - 1, 0, old_breaks.size - 2)
        h = old_breaks[j + 1] - old_breaks[j]
        return cls(j, (new_breaks[:-1] - old_breaks[j]) / h, (new_breaks[1:] - old_breaks[j]) / h)

    def __call__(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint values on the new pieces of the field (old breaks, left, right)."""
        a, b = left[self.j], right[self.j]
        return a * (1.0 - self.lam_l) + b * self.lam_l, a * (1.0 - self.lam_r) + b * self.lam_r

    def at_nodes(self) -> "NodeResampling":
        """Node evaluation: new node k < K at the left end of new piece k, node K
        at the right end of the last one."""
        lam = np.append(self.lam_l, self.lam_r[-1])
        return NodeResampling(np.append(self.j, self.j[-1]), lam, 1.0 - lam)


@dataclass(frozen=True)
class NodeResampling:
    """Where the nodes of a refinement sit in the pieces of a coarser grid.

    New node k lies in old piece ``j[k]`` at local coordinate ``lam[k]``.  A
    continuous affine field is its nodal values, so mapping it onto the new
    grid is one gather.  The values equal the endpoint values ``Resampling``
    gives, up to the sign of a zero: inside an old piece both ends of a new
    one share j and lam, and at an old break lam is exactly 1, then 0.
    """

    j: np.ndarray
    lam: np.ndarray
    one_minus_lam: np.ndarray

    def __call__(self, nodes: np.ndarray) -> np.ndarray:
        """Nodal values on the new grid of the interpolant of ``nodes``."""
        return nodes[self.j] * self.one_minus_lam + nodes[1:][self.j] * self.lam
