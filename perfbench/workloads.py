"""Workload definitions: one JSON config per (workload, seed).

Each workload is a CLI config (the format ``congested_flow.cli.load_config``
reads) that both ``simulate`` (at ``n``) and ``converge`` (over ``n_list``)
run from.  ``two_block_large`` and ``smooth_cascade`` reuse the datum of the
repository's own ``configs/*.json``; ``random_contacts`` is generated from the
seed.  The seed also feeds the config's ``seed`` field, which draws the
random (s, t) pairs of the invariant battery.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SAMPLE_TIMES = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]

# name -> (datum source, simulate n, converge n_list)
WORKLOADS = {
    "two_block_large": ("configs/two_block.json", 8192, [2048, 4096, 8192, 16384, 32768]),
    "smooth_cascade": ("configs/smooth_compression.json", 2048, [512, 1024, 2048, 4096, 8192]),
    "random_contacts": (None, 200, [500, 1000, 2000, 4000]),
}

PIECES = 64
# every third piece is saturated: about a third of them, never two adjacent
SATURATED = np.arange(PIECES) % 3 == 1
SATURATED_MASS = 1.0 / 3.0


def _grid_midpoints(w: np.ndarray, grid: int) -> np.ndarray:
    """Move interior mass breaks to the nearest midpoint (j + 1/2) / grid.

    For every n dividing ``grid`` the break then sits at least 1/(2 grid)
    away from each quantile i/n, so no particle samples a piece boundary.
    """
    out = w.copy()
    out[1:-1] = (np.floor(w[1:-1] * grid) + 0.5) / grid
    return out


def random_contacts_scenario(seed: int, ns) -> dict:
    """Seeded custom scenario: 64 density pieces with Lagrangian affine velocities.

    Saturated pieces (density 1, a third of the mass) move rigidly.  Every
    other piece has density in [0.3, 0.8] and a compressive velocity that
    closes its gaps at a seeded instant in [0.2, 0.8] (horizon 1), so about
    two thirds of the particles take part in pair events.  Their hit times
    agree only up to rounding, which breaks each piece's collapse into
    separate contacts: roughly 0.67 n events at every n.
    """
    rng = np.random.default_rng(seed)
    grid = math.lcm(*ns)
    masses = rng.uniform(0.5, 1.5, PIECES)
    masses[SATURATED] *= SATURATED_MASS / masses[SATURATED].sum()
    masses[~SATURATED] *= (1.0 - SATURATED_MASS) / masses[~SATURATED].sum()
    w_target = _grid_midpoints(np.concatenate(([0.0], np.cumsum(masses))), grid)
    w_target[-1] = 1.0
    masses = np.diff(w_target)
    values = np.where(SATURATED, 1.0, rng.uniform(0.3, 0.8, PIECES))
    offsets = rng.normal(0.0, 1.0, PIECES)
    collapse = rng.uniform(0.2, 0.8, PIECES)

    density = []
    a = 0.0
    for m, v in zip(masses, values):
        b = a + float(m) / float(v)
        density.append([a, b, float(v)])
        a = b
    # the mass breaks exactly as rearrangement_from_density accumulates them,
    # so each velocity piece lines up with its density piece bit for bit
    w = [0.0]
    acc = 0.0
    for a, b, v in density:
        acc += v * (b - a)
        w.append(acc)
    w[-1] = 1.0

    pieces = []
    for k in range(PIECES):
        c = float(offsets[k])
        if SATURATED[k]:
            pieces.append([w[k], w[k + 1], c, c])
        else:
            # gap excess (1/v - 1)/n closes at relative speed (du/dw)/n
            spread = (1.0 / values[k] - 1.0) * (w[k + 1] - w[k]) / collapse[k]
            pieces.append([w[k], w[k + 1], c + spread / 2.0, c - spread / 2.0])
    return {"name": "custom", "density": density,
            "velocity": {"kind": "lagrangian", "pieces": pieces}}


def workload_config(root: Path, workload: str, seed: int) -> dict:
    """The full CLI config of one workload at one seed."""
    source, n, n_list = WORKLOADS[workload]
    if source is None:
        scenario = random_contacts_scenario(seed, [n] + n_list)
    else:
        scenario = json.loads((root / source).read_text())["scenario"]
    return {"scenario": scenario, "n": n, "n_list": n_list, "horizon": 1.0,
            "delta": 0.1, "sample_times": SAMPLE_TIMES, "seed": seed}


def write_config(root: Path, workload: str, seed: int, path: Path) -> Path:
    path.write_text(json.dumps(workload_config(root, workload, seed), indent=1) + "\n")
    return path
