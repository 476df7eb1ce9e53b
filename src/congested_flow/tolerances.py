"""Every tolerance the engine and its checks decide with, in one table.

Each name gives a value, the scale it multiplies and why it is that size.
The scales are: absolute; relative to the span of the positions plus a few
ulps of their magnitude (``contact_tol``); ``1 + max|u0|`` for velocities
and multipliers; ``1 + E0`` for the rescaled kinetic energy; per particle
(times n); and relative to the quantity compared.  ``contact_tol`` is the
one place where the engine decides whether a gap of a particle state sits
at the minimal spacing; the oracle certificates keep their own scales
below.

Two checks bound the same quantity, sum(u) - sum(u0), at two scales: the
closure lam[n] = -sum(u - u0) / n of ``multipliers_at`` must vanish within
LAMBDA_CLOSURE_RTOL * (1 + max|u0|), so sum(u) - sum(u0) within
n * 1e-12 * (1 + max|u0|); the battery's ``momentum_conservation`` holds it
to TOL_MOMENTUM_PER_N * n, the tighter of the two unless u0 is 0.
"""

from __future__ import annotations

import numpy as np

# -- the engine: contacts, ties, multipliers ----------------------------------

# span-relative part of contact_tol; with scale 1 + max|u0|, also the largest
# velocity difference a contact pair of an initial datum may carry.  Event
# positions are exact up to rounding, so it only absorbs a few roundings
CONTACT_RTOL = 1e-12
# ulps of max|x| in contact_tol: the rounding of a gap x[i+1] - x[i] at large
# offsets, which the span does not see
CONTACT_ULPS = 8
# absolute, in time: collision instants closer than this are one instant;
# lead / rel of a pair rounds far below it on data of unit size
EVENT_TIE_TOL = 1e-13
# scale 1 + max|u0|: the most negative multiplier jump a merge may carry; the
# jump is a cumulative sum of velocity differences, exact up to rounding
JUMP_FLOOR_RTOL = 1e-12
# scale 1 + max|u0|: |lam[n]| that multipliers_at accepts; see the docstring
LAMBDA_CLOSURE_RTOL = 1e-12
# relative to the horizon: a query time past it by rounding is still inside
QUERY_HORIZON_RTOL = 1e-12
# scale 1 + E0: rounding of the running energy sum(u^2) / n across events
ENERGY_RTOL = 1e-12

# -- the invariant battery ----------------------------------------------------

# absolute: max |lam_j * (gap_j - two_r)| and min lam (verify_complementarity),
# and max |1 - rho| under a pressure atom; lam and the slacks are O(1)
TOL_COMPLEMENTARITY = 1e-10
# absolute: lam >= 0 in the battery, tighter than the product; a genuine
# negative multiplier is O(1/n), far above it
TOL_MIN_LAMBDA = 1e-12
# absolute: restart identity, positions and velocities; a restart projects
# and averages again, so a few roundings of O(1) values
TOL_SEMIGROUP = 1e-9
# per particle (times n): |sum u(t) - sum u0| of a sampled state
TOL_MOMENTUM_PER_N = 1e-12
# absolute: mass and momentum weak residuals; sums of O(n) boundary terms
# against test functions of unit size
TOL_WEAK_RESIDUAL = 1e-8
# absolute: order-1/order-2 residuals and both exclusion relations of the
# interpolated discrete system; n times rounding of O(1/n) multipliers
DISCRETE_PDE_TOL = 1e-10
# absolute: total snapshot mass 1, and the least density tolerance; a sum of
# n cell masses two_r / dx * dx
EULERIAN_MASS_TOL = 1e-12
# relative and absolute slack of the L1 velocity-gradient bound (rounding)
GRADIENT_L1_RTOL = 1e-12
GRADIENT_L1_ATOL = 1e-12
# relative and absolute slack of the W2 modulus against its velocity bound
W2_RTOL = 1e-12
W2_ATOL = 1e-15
# absolute, in time: a sampled instant closer than this to an event moves
# later by SAMPLE_SHIFT, so that no sample sits on an event
SAMPLE_EVENT_CLEARANCE = 1e-9
SAMPLE_SHIFT = 3e-9
# absolute, in time: semigroup pairs (s, t) closer than this are skipped
SEMIGROUP_MIN_SPAN = 1e-9

# -- the KKT oracle and normal-cone certificates ----------------------------

# absolute: primal and dual feasibility of a KKT candidate; scale 1 + max|y|
# for its active set
ORACLE_KKT_TOL = 1e-9
# absolute: an objective below the best by less than this is a tie
KKT_OBJECTIVE_TIE = 1e-15
# absolute: max |PAVA - oracle| in the randomized sweep
ORACLE_DEVIATION_TOL = 1e-9
# absolute: complementarity and sign of the oracle's multipliers in the sweep
ORACLE_CERTIFICATE_TOL = 1e-10
# scale 1 + max|x|: feasibility and active set of normal_cone_check
NORMAL_CONE_RTOL = 1e-10

# -- macroscopic data ---------------------------------------------------------

# absolute: total mass of a density, a short sum of O(1) products
MASS_TOL = 1e-12
# relative to the saturated slope: a rearrangement cell is saturated, and a
# slope below 1 by more than this means a density above the threshold
SLOPE_RTOL = 1e-10
# absolute: a jump of the rearrangement larger than this is a vacuum gap, and
# one below minus this makes it decrease
X_JUMP_TOL = 1e-12
# absolute: velocity variation on a saturated piece of a datum
SATURATED_SHEAR_TOL = 1e-12
# ulps of 1, in mass: a quantile i/n this close to an end of a saturated piece
# sits on that end.  A mass break is a cumulative sum of piece masses, so it
# carries the rounding of that sum; on the random_contacts benchmark datum at
# seeds 1-10 and n <= 10000, 2 ulps suffice and 1 does not
QUANTILE_BREAK_ULPS = 4

# -- the two-block selection and contraction scenarios ------------------------

# absolute: simulated speed after the collision; cluster means of +-1 on the
# symmetric split are exactly 0 up to rounding
SELECTION_SPEED_TOL = 1e-12
# absolute: L2 distance of the simulated velocity to the sticky branch
STICKY_DISTANCE_TOL = 1e-10
# absolute: sup distance of the congested projection of u0 to the simulated
# velocity (cluster-mean identity)
PROJECTION_IDENTITY_TOL = 1e-12
# absolute: closed-form branch quantities, exact up to rounding: the least
# atom profile value may fall below 0 and the complementarity at the atom
# above 0 by this much
ANALYTIC_TOL = 1e-12
# absolute: the largest growth of the L2 distance of two runs between samples
CONTRACTION_TOL = 1e-12


def contact_tol(x: np.ndarray, axis: int | None = None):
    """Contact tolerance of positions x: a gap within it of two_r is a contact.

    CONTACT_RTOL * (1 + (max x - min x)) + CONTACT_ULPS * eps * max|x|.  The
    first term depends on differences of positions only and the second is the
    rounding of a gap at their magnitude, so translating x changes the
    decision only through that rounding.  With ``axis``, one tolerance per
    slice along it, as an array.
    """
    span = np.max(x, axis=axis) - np.min(x, axis=axis)
    tol = (CONTACT_RTOL * (1.0 + span)
           + CONTACT_ULPS * float(np.finfo(float).eps) * np.max(np.abs(x), axis=axis))
    return float(tol) if axis is None else tol
