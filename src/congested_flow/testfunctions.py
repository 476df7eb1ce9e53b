"""Compactly supported C^2 test functions with closed-form derivatives.

Each function is a tensor product phi(t, x) = T(t) * S(x) of a time window
supported in [0, tau] and a spatial bump q(xi) * (1 - xi^2)^3 with
xi = (x - c) / s and q a low-degree monomial.  Both factors are polynomial
inside their support and vanish to second order at its boundary, so phi is
C^2 and piecewise polynomial.  The weak residuals integrate it along
characteristics in closed form (the time integrals are boundary terms) and
in the mass variable by Gauss-Legendre cut at the spatial knots, which is
exact where positions are affine in the mass variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError

__all__ = ["TimeWindow", "SpaceBump", "TestFunction", "build_test_family"]


@dataclass(frozen=True)
class TimeWindow:
    """C^2 window on [0, tau]; ``vanish_at_zero`` selects ((t/s)(1-t/s))^3 * 64."""

    tau: float
    vanish_at_zero: bool = False

    def _s(self, t):
        """s = t / tau, zero outside [0, 1], and the mask of the support."""
        s = np.asarray(t, dtype=float) / self.tau
        inside = (s >= 0.0) & (s <= 1.0)
        return np.where(inside, s, 0.0), inside

    def __call__(self, t):
        s, inside = self._s(t)
        if self.vanish_at_zero:
            val = 64.0 * (s * (1.0 - s)) ** 3
        else:
            val = (1.0 - s * s) ** 3
        return np.where(inside, val, 0.0)

    def d(self, t):
        s, inside = self._s(t)
        if self.vanish_at_zero:
            val = 192.0 * (s * (1.0 - s)) ** 2 * (1.0 - 2.0 * s) / self.tau
        else:
            val = -6.0 * s * (1.0 - s * s) ** 2 / self.tau
        return np.where(inside, val, 0.0)


@dataclass(frozen=True)
class SpaceBump:
    """q(xi) * (1 - xi^2)^3 with xi = (x - center)/halfwidth, q = xi^power."""

    center: float
    halfwidth: float
    power: int = 0

    def _xi(self, x):
        """xi = (x - center) / halfwidth, zero outside [-1, 1], and the mask
        of the support."""
        xi = (np.asarray(x, dtype=float) - self.center) / self.halfwidth
        inside = np.abs(xi) <= 1.0
        return np.where(inside, xi, 0.0), inside

    def __call__(self, x):
        xi, inside = self._xi(x)
        val = xi ** self.power * (1.0 - xi * xi) ** 3
        return np.where(inside, val, 0.0)

    def d(self, x):
        xi, inside = self._xi(x)
        one = 1.0 - xi * xi
        if self.power == 0:
            val = -6.0 * xi * one ** 2
        else:
            val = (self.power * xi ** (self.power - 1) * one
                   - 6.0 * xi ** (self.power + 1)) * one ** 2
        return np.where(inside, val / self.halfwidth, 0.0)

    @property
    def knots(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)


@dataclass(frozen=True)
class TestFunction:
    """phi(t, x) = T(t) * S(x); exposes phi, phi_t, phi_x and the spatial knots."""

    __test__ = False  # not a pytest collection target

    window: TimeWindow
    bump: SpaceBump

    def __call__(self, t, x):
        return self.window(t) * self.bump(x)

    def dt(self, t, x):
        return self.window.d(t) * self.bump(x)

    def dx(self, t, x):
        return self.window(t) * self.bump.d(x)

    @property
    def x_knots(self) -> tuple[float, float]:
        return self.bump.knots

    @property
    def support_end(self) -> float:
        return self.window.tau


def build_test_family(x_lo: float, x_hi: float, horizon: float) -> list[TestFunction]:
    """Deterministic 12-function family covering [x_lo, x_hi] over [0, 0.9 * horizon].

    Two time windows (one active at t=0, one vanishing there), two spatial
    geometries and three monomial factors.
    """
    if not (x_hi > x_lo) or horizon <= 0.0:
        raise InputDomainError("need a nonempty space interval and positive horizon")
    span = x_hi - x_lo
    mid = (x_lo + x_hi) / 2.0
    tau = 0.9 * horizon
    windows = [TimeWindow(tau, False), TimeWindow(tau, True)]
    geoms = [
        SpaceBump(mid, 0.75 * span),
        SpaceBump(x_lo + 0.3 * span, 0.45 * span),
    ]
    fns = []
    for window in windows:
        for geom in geoms:
            for power in (0, 1, 2):
                fns.append(TestFunction(window, SpaceBump(geom.center, geom.halfwidth, power)))
    return fns
