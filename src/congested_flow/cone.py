"""Exact projection onto the minimal-spacing cone and its KKT certificates.

The admissible configurations of n ordered particles with minimal center
spacing ``two_r`` form a closed convex cone-like set

    K = { x : x[i+1] - x[i] >= two_r }.

Subtracting the rigid stacking ``two_r * i`` maps K onto the cone of
nondecreasing vectors, so the metric projection reduces to isotonic
regression, computed by pool-adjacent-violators in O(n).  PAVA is constant on
runs of equal adjacent data, so ``projection_blocks``, the one driver of the
projection, runs it over the weighted means of the runs on which the
translated data is rigid (by default every particle is its own run).  A
brute-force KKT oracle (exhaustive active-set enumeration) provides an
independent ground truth for small n, together with multiplier certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    InputDomainError,
    InvariantViolationError,
    PreconditionError,
)
from .tolerances import KKT_OBJECTIVE_TIE, NORMAL_CONE_RTOL, ORACLE_KKT_TOL

__all__ = [
    "SpacingCone",
    "ConeCertificate",
    "isotonic_project",
    "project_onto_cone",
    "projection_blocks",
    "qp_oracle_project",
    "normal_cone_check",
]


@dataclass(frozen=True)
class SpacingCone:
    """Spacing constraint set for ``n`` particles at minimal gap ``two_r``.

    The canonical scaling ties the gap to the particle count, two_r = 1/n;
    unit tests may use other gaps.
    """

    n: int
    two_r: float

    def __post_init__(self):
        if self.n < 2:
            raise InputDomainError(f"need at least 2 particles, got n={self.n}")
        if not self.two_r > 0.0:
            raise InputDomainError(f"minimal spacing must be positive, got {self.two_r}")

    @classmethod
    def canonical(cls, n: int) -> "SpacingCone":
        """Cone with the canonical scaling two_r = 1/n."""
        return cls(n, 1.0 / n)

    def translate(self, x: np.ndarray) -> np.ndarray:
        """Remove the rigid stacking: xt[i] = x[i] - two_r * i."""
        return np.asarray(x, dtype=float) - self.two_r * np.arange(self.n)

    def untranslate(self, xt: np.ndarray) -> np.ndarray:
        return np.asarray(xt, dtype=float) + self.two_r * np.arange(self.n)

    def gaps(self, x: np.ndarray) -> np.ndarray:
        """Adjacent center gaps x[i+1] - x[i], length n-1."""
        x = np.asarray(x, dtype=float)
        return x[1:] - x[:-1]

    def feasibility_violation(self, x: np.ndarray) -> float:
        """Largest constraint violation max(two_r - gap, 0); 0 means feasible,
        NaN if any gap is NaN."""
        return float(np.max(self.two_r - self.gaps(x), initial=0.0))


@dataclass
class ConeCertificate:
    """Multiplier certificate for membership of a vector in the normal cone.

    ``lambdas`` has length n-1 (one per adjacent constraint).  The stationarity
    scaling depends on the producing operation and is documented there.
    """

    lambdas: np.ndarray
    active_set: np.ndarray
    max_complementarity_violation: float
    min_lambda: float
    closure_error: float = 0.0

    def passes(self, tol: float) -> bool:
        return (
            self.min_lambda >= -tol
            and self.max_complementarity_violation <= tol
            and self.closure_error <= tol
        )


def _check_block_starts(s: np.ndarray, n: int) -> None:
    """Raise InputDomainError unless ``s`` are the block starts of a partition
    of 0..n-1: a 1-d integer array ascending strictly from 0, below n."""
    if not (s.ndim == 1 and s.size and s.dtype.kind in "iu" and s[0] == 0
            and s[-1] < n and np.all(s[1:] > s[:-1])):
        raise InputDomainError("block starts must ascend strictly from 0 and stay below n")


def _pava(y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators.  Returns (block_starts, block_means).

    Blocks partition 0..n-1 into maximal pooled runs; means are the weighted
    averages, nondecreasing across blocks.  Only strict violations pool, so
    an already-monotone input passes through bitwise.  Amortized O(n): each
    index is pushed once and merged at most once.
    """
    n = y.size
    # Python floats are IEEE doubles: the same operations in the same order as
    # on numpy scalars, without their per-operation boxing cost
    ys = y.tolist()
    ws = w.tolist()
    starts = [0] * n
    sums_wy = [0.0] * n
    sums_w = [0.0] * n
    means = [0.0] * n
    m = 0
    for i in range(n):
        starts[m] = i
        cw = ws[i]
        cwy = cw * ys[i]
        cmean = ys[i]
        while m > 0 and means[m - 1] > cmean:
            m -= 1
            cw += sums_w[m]
            cwy += sums_wy[m]
            cmean = cwy / cw
        sums_w[m] = cw
        sums_wy[m] = cwy
        means[m] = cmean
        m += 1
    return np.array(starts[:m], dtype=np.intp), np.array(means[:m])


def isotonic_project(y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Project onto the cone of nondecreasing vectors (weighted PAVA)."""
    y = np.ascontiguousarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise InputDomainError("isotonic_project expects a nonempty 1-d array")
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.ascontiguousarray(weights, dtype=float)
        if w.shape != y.shape:
            raise InputDomainError("weights must match the data shape")
        if not np.all(w > 0.0):
            raise InputDomainError("weights must be strictly positive")
    starts, means = _pava(y, w)
    return np.repeat(means, np.diff(np.append(starts, y.size)))


def projection_blocks(cone: SpacingCone, y: np.ndarray, runs: np.ndarray | None = None):
    """Metric projection onto the spacing set, with pooled-block structure.

    Returns ``(x, starts)``: x = P_K(y) and the first particles of the pooled
    blocks.  ``runs`` are the block starts of a partition on which
    cone.translate(y) is constant up to rounding; by default every particle
    is its own run.  Isotonic regression is constant on runs of equal
    adjacent data, so PAVA runs on the K run means weighted by run size:
    O(n) vectorised work plus O(K) PAVA, and ``starts`` is a subset of
    ``runs``.  With every run a singleton the means are the translated data
    bitwise and every weight is 1.

    Isotonic regression is non-expansive in the sup norm, so the result
    deviates from the per-particle projection by at most the largest spread
    of the translated data inside one run.  Within a pooled block the output
    gaps equal two_r up to the rounding of ``untranslate``, and exactly when
    two_r is a power of two.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cone.n,):
        raise InputDomainError(f"expected shape ({cone.n},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InputDomainError("input must be finite")
    runs = np.arange(cone.n) if runs is None else np.asarray(runs)
    _check_block_starts(runs, cone.n)
    sizes = np.diff(np.append(runs, cone.n))
    means = np.add.reduceat(cone.translate(y), runs) / sizes
    pooled, block_means = _pava(means, sizes.astype(float))
    starts = runs[pooled]
    xt = np.repeat(block_means, np.diff(np.append(starts, cone.n)))
    return cone.untranslate(xt), starts


def project_onto_cone(cone: SpacingCone, y: np.ndarray) -> np.ndarray:
    """Euclidean projection of y onto {x : x[i+1]-x[i] >= two_r}."""
    x, _ = projection_blocks(cone, y)
    return x


def _blocks_from_mask(n: int, mask: int) -> list[tuple[int, int]]:
    """Contiguous particle blocks [a, b] implied by an active-constraint bitmask.

    Bit j set means constraint j (between particles j and j+1) is active.
    """
    blocks = []
    a = 0
    for j in range(n - 1):
        if not (mask >> j) & 1:
            blocks.append((a, j))
            a = j + 1
    blocks.append((a, n - 1))
    return blocks


def _kkt_enumerate(cone: SpacingCone, ys: np.ndarray):
    """Exhaustive KKT active-set enumeration for every row of ``ys`` (m, n).

    Solves every equality-constrained candidate (2^(n-1) active sets) for all
    rows at once and keeps, per row, the candidate of least objective that is
    primal and dual feasible within ORACLE_KKT_TOL.  Returns the projections
    (m, n) and their unscaled stationarity multipliers (m, n-1).
    """
    if cone.n > 20:
        raise CapacityError(f"active-set enumeration capped at n=20, got n={cone.n}")
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != cone.n:
        raise InputDomainError("row length does not match the cone dimension")
    m, n = ys.shape
    yts = ys - cone.two_r * np.arange(n)
    best_x = np.full((m, n), np.nan)
    best_lam = np.full((m, n - 1), np.nan)
    best_obj = np.full(m, np.inf)
    for mask in range(1 << (n - 1)):
        xts = np.empty_like(yts)
        for a, b in _blocks_from_mask(n, mask):
            xts[:, a:b + 1] = yts[:, a:b + 1].mean(axis=1, keepdims=True)
        # multipliers vanish off the active set by construction (block means);
        # dual feasibility requires them nonnegative on it
        lam = -np.cumsum(xts - yts, axis=1)[:, :-1]
        ok = (np.all(xts[:, 1:] - xts[:, :-1] >= -ORACLE_KKT_TOL, axis=1)
              & np.all(lam >= -ORACLE_KKT_TOL, axis=1))
        if not ok.any():
            continue
        obj = np.sum((xts - yts) ** 2, axis=1)
        better = ok & (obj < best_obj - KKT_OBJECTIVE_TIE)
        best_x[better] = xts[better]
        best_lam[better] = lam[better]
        best_obj[better] = obj[better]
    if not np.all(np.isfinite(best_obj)):
        raise InvariantViolationError("no KKT point found; this cannot happen for a projection")
    return best_x + cone.two_r * np.arange(n), best_lam


def qp_oracle_project(cone: SpacingCone, y: np.ndarray):
    """Projection by exhaustive KKT active-set enumeration (ground truth).

    The batched enumeration on one row, returned with its certificate.
    Multipliers satisfy the unscaled stationarity
    x - y + sum_j lambda_j (e_j - e_{j+1}) = 0.  Intended as an independent
    check of the PAVA route; n is capped because of the enumeration.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cone.n,):
        raise InputDomainError(f"expected shape ({cone.n},), got {y.shape}")
    xs, lams = _kkt_enumerate(cone, y[None, :])
    return xs[0], _certificate(cone, y, xs[0], lams[0])


def _certificate(cone: SpacingCone, y: np.ndarray, x: np.ndarray,
                 lam: np.ndarray) -> ConeCertificate:
    """The oracle's certificate of x, the projection of y, and its
    multipliers lam (one row of ``_kkt_enumerate``)."""
    gaps = cone.gaps(x)
    active = np.flatnonzero(np.abs(gaps - cone.two_r) <= ORACLE_KKT_TOL * (1.0 + np.abs(y).max()))
    compl = float(np.max(np.abs(lam) * np.abs(gaps - cone.two_r)))
    return ConeCertificate(
        lambdas=lam,
        active_set=active,
        max_complementarity_violation=compl,
        min_lambda=float(lam.min()),
    )


def qp_oracle_project_many(cone: SpacingCone, ys: np.ndarray) -> np.ndarray:
    """Oracle projection of every row of ``ys`` (m, n), for randomized sweeps."""
    xs, _ = _kkt_enumerate(cone, ys)
    return xs


def normal_cone_check(cone: SpacingCone, x: np.ndarray, xi: np.ndarray) -> ConeCertificate:
    """Certificate that ``xi`` lies in the normal cone to the spacing set at x.

    Decomposes xi = n * sum_j lambda_j (e_j - e_{j+1}) (the dynamics scaling,
    with lambda_0 = lambda_n = 0) and reports the smallest multiplier, the
    largest complementarity product lambda_j * (gap_j - two_r), and the
    closure error |lambda_n| that a genuine normal vector must bring to zero.
    x and xi must be finite (else InputDomainError), x must be feasible,
    and the active set holds the gaps at two_r, both within
    NORMAL_CONE_RTOL * (1 + max|x|).
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.shape != (cone.n,) or xi.shape != (cone.n,):
        raise InputDomainError("x and xi must both have the cone dimension")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
        raise InputDomainError("x and xi must be finite")
    scale = 1.0 + float(np.abs(x).max())
    if cone.feasibility_violation(x) > NORMAL_CONE_RTOL * scale:
        raise PreconditionError("x is not feasible within tolerance")
    lam_full = np.cumsum(xi) / cone.n
    lam = lam_full[:-1]
    closure = float(abs(lam_full[-1]))
    gaps = cone.gaps(x)
    slack = gaps - cone.two_r
    active = np.flatnonzero(slack <= NORMAL_CONE_RTOL * scale)
    compl = float(np.max(np.abs(lam * slack))) if lam.size else 0.0
    return ConeCertificate(
        lambdas=lam,
        active_set=active,
        max_complementarity_violation=compl,
        min_lambda=float(lam.min()) if lam.size else 0.0,
        closure_error=closure,
    )
