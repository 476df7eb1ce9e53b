"""Exact laboratory for one-dimensional congested pressureless Euler dynamics.

Simulates n sticky hard particles under the minimal-spacing (Signorini)
constraint, computes the contact multipliers and the atomic congestion
pressure, verifies the proved invariants, and realizes the hydrodynamic
limit down to the Eulerian weak solution (density, momentum, pressure).
"""

from .cone import (
    ConeCertificate,
    SpacingCone,
    isotonic_project,
    normal_cone_check,
    project_onto_cone,
    qp_oracle_project,
)
from .dynamics import (
    EventTimeline,
    MergeEvent,
    MicroState,
    evolve,
    multipliers_at,
    pressure_measure,
    trajectory_at,
    validate_initial,
)
from .initdata import (
    MacroscopicDatum,
    quantile_sample,
    rearrangement_from_density,
)

__version__ = "0.1.0"
