"""Exact projection onto the minimal-spacing cone and its KKT certificates.

The admissible configurations of n ordered particles with minimal center
spacing ``two_r`` form a closed convex cone-like set

    K = { x : x[i+1] - x[i] >= two_r }.

Subtracting the rigid stacking ``two_r * i`` maps K onto the cone of
nondecreasing vectors, so the metric projection reduces to isotonic
regression, computed here by pool-adjacent-violators in O(n).  A brute-force
KKT oracle (exhaustive active-set enumeration) provides an independent ground
truth for small n, together with multiplier certificates.
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

__all__ = [
    "SpacingCone",
    "ConeCertificate",
    "isotonic_project",
    "isotonic_blocks",
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
        """Largest constraint violation max(two_r - gap, 0); 0 means feasible."""
        g = self.gaps(x)
        return float(max(0.0, np.max(self.two_r - g))) if g.size else 0.0


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


def _check_isotonic_input(y: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    return y, w


def _pava(y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators.  Returns (block_starts, block_means).

    Blocks partition 0..n-1 into maximal pooled runs; means are the weighted
    averages, nondecreasing across blocks.  Only strict violations pool, so
    an already-monotone input passes through bitwise.  Amortized O(n): each
    index is pushed once and merged at most once.
    """
    n = y.size
    starts = np.empty(n, dtype=np.intp)
    sums_wy = np.empty(n)
    sums_w = np.empty(n)
    means = np.empty(n)
    m = 0
    for i in range(n):
        starts[m] = i
        cw = w[i]
        cwy = cw * y[i]
        cmean = y[i]
        while m > 0 and means[m - 1] > cmean:
            m -= 1
            cw += sums_w[m]
            cwy += sums_wy[m]
            cmean = cwy / cw
        sums_w[m] = cw
        sums_wy[m] = cwy
        means[m] = cmean
        m += 1
    return starts[:m].copy(), means[:m].copy()


def isotonic_blocks(y: np.ndarray, weights: np.ndarray | None = None):
    """Weighted isotonic regression with its pooled-block structure.

    Returns ``(x, starts, means)`` where x is the nondecreasing minimizer of
    sum w_i (x_i - y_i)^2, ``starts`` are the first indices of the pooled
    blocks and ``means`` their common values.
    """
    y, w = _check_isotonic_input(y, weights)
    starts, means = _pava(y, w)
    x = np.repeat(means, np.diff(np.append(starts, y.size)))
    return x, starts, means


def isotonic_project(y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Project onto the cone of nondecreasing vectors (weighted PAVA)."""
    x, _, _ = isotonic_blocks(y, weights)
    return x


def projection_blocks(cone: SpacingCone, y: np.ndarray):
    """Metric projection onto the spacing set, with pooled-block structure.

    Returns ``(x, starts)``: x = P_K(y) and the first indices of the pooled
    runs of the underlying isotonic problem.  Within a pooled run the output
    gaps equal two_r exactly.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cone.n,):
        raise InputDomainError(f"expected shape ({cone.n},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InputDomainError("input must be finite")
    xt, starts, _ = isotonic_blocks(cone.translate(y))
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


def _kkt_enumerate(cone: SpacingCone, ys: np.ndarray, tol: float):
    """Exhaustive KKT active-set enumeration for every row of ``ys`` (m, n).

    Solves every equality-constrained candidate (2^(n-1) active sets) for all
    rows at once and keeps, per row, the primal and dual feasible candidate of
    least objective.  Returns the projections (m, n) and their unscaled
    stationarity multipliers (m, n-1).
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
        ok = np.all(xts[:, 1:] - xts[:, :-1] >= -tol, axis=1) & np.all(lam >= -tol, axis=1)
        if not ok.any():
            continue
        obj = np.sum((xts - yts) ** 2, axis=1)
        better = ok & (obj < best_obj - 1e-15)
        best_x[better] = xts[better]
        best_lam[better] = lam[better]
        best_obj[better] = obj[better]
    if not np.all(np.isfinite(best_obj)):
        raise InvariantViolationError("no KKT point found; this cannot happen for a projection")
    return best_x + cone.two_r * np.arange(n), best_lam


def qp_oracle_project(cone: SpacingCone, y: np.ndarray, tol: float = 1e-9):
    """Projection by exhaustive KKT active-set enumeration (ground truth).

    The batched enumeration on one row, returned with its certificate.
    Multipliers satisfy the unscaled stationarity
    x - y + sum_j lambda_j (e_j - e_{j+1}) = 0.  Intended as an independent
    check of the PAVA route; n is capped because of the enumeration.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cone.n,):
        raise InputDomainError(f"expected shape ({cone.n},), got {y.shape}")
    xs, lams = _kkt_enumerate(cone, y[None, :], tol)
    x, lam = xs[0], lams[0]
    gaps = cone.gaps(x)
    active = np.flatnonzero(np.abs(gaps - cone.two_r) <= tol * (1.0 + np.abs(y).max()))
    compl = float(np.max(np.abs(lam) * np.abs(gaps - cone.two_r)))
    cert = ConeCertificate(
        lambdas=lam,
        active_set=active,
        max_complementarity_violation=compl,
        min_lambda=float(lam.min()),
    )
    return x, cert


def qp_oracle_project_many(cone: SpacingCone, ys: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Oracle projection of every row of ``ys`` (m, n), for randomized sweeps."""
    xs, _ = _kkt_enumerate(cone, ys, tol)
    return xs


def normal_cone_check(cone: SpacingCone, x: np.ndarray, xi: np.ndarray, tol: float = 1e-10) -> ConeCertificate:
    """Certificate that ``xi`` lies in the normal cone to the spacing set at x.

    Decomposes xi = n * sum_j lambda_j (e_j - e_{j+1}) (the dynamics scaling,
    with lambda_0 = lambda_n = 0) and reports the smallest multiplier, the
    largest complementarity product lambda_j * (gap_j - two_r), and the
    closure error |lambda_n| that a genuine normal vector must bring to zero.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.shape != (cone.n,) or xi.shape != (cone.n,):
        raise InputDomainError("x and xi must both have the cone dimension")
    scale = 1.0 + float(np.abs(x).max())
    if cone.feasibility_violation(x) > tol * scale:
        raise PreconditionError("x is not feasible within tolerance")
    lam_full = np.cumsum(xi) / cone.n
    lam = lam_full[:-1]
    closure = float(abs(lam_full[-1]))
    gaps = cone.gaps(x)
    slack = gaps - cone.two_r
    active = np.flatnonzero(slack <= tol * scale)
    compl = float(np.max(np.abs(lam * slack))) if lam.size else 0.0
    return ConeCertificate(
        lambdas=lam,
        active_set=active,
        max_complementarity_violation=compl,
        min_lambda=float(lam.min()) if lam.size else 0.0,
        closure_error=closure,
    )
