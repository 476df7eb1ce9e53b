"""Deterministic random admissible data for sweeps and benchmarks."""

from __future__ import annotations

import numpy as np

from .cone import SpacingCone

__all__ = ["random_admissible_datum", "random_projection_input"]


def random_admissible_datum(n: int, rng: np.random.Generator,
                            contacts: bool = False,
                            gap_scale: float | None = None):
    """Feasible positions and admissible velocities for the canonical cone.

    With ``contacts=True`` roughly a third of adjacent pairs start exactly at
    the minimal spacing, grouped into clusters with a shared velocity; the
    remaining gaps carry positive slack, so velocities there are free.
    """
    cone = SpacingCone.canonical(n)
    scale = gap_scale if gap_scale is not None else 2.0 / n
    gaps = cone.two_r + rng.exponential(scale, n - 1)
    if contacts:
        touching = rng.random(n - 1) < 1.0 / 3.0
        gaps[touching] = cone.two_r
    x0 = np.concatenate(([rng.normal(0.0, 0.1)], np.zeros(n - 1)))
    x0[1:] = gaps
    x0 = np.cumsum(x0)
    u0 = rng.normal(0.0, 1.0, n)
    if contacts:
        # each contact run moves with the velocity drawn for its first particle
        starts = np.flatnonzero(np.concatenate(([True], gaps != cone.two_r)))
        u0 = np.repeat(u0[starts], np.diff(np.append(starts, n)))
    return x0, u0, cone


def random_projection_input(n: int, rng: np.random.Generator,
                            two_r: float | None = None):
    """Generic (infeasible) input for projection stress tests."""
    cone = SpacingCone(n, two_r if two_r is not None else 1.0 / n)
    y = np.cumsum(rng.normal(0.0, 1.0, n)) * cone.two_r + rng.normal(0.0, 1.0, n)
    return cone, y
