"""Microscopic sticky-particle engine under the minimal-spacing constraint.

Two independent solution routes are implemented and cross-validated:

* ``trajectory_at`` evaluates the closed-form state at any time by projecting
  the free flight onto the spacing set and averaging initial velocities over
  the contact clusters.
* ``evolve`` runs an event-driven simulation: collision instants are roots of
  linear gap functions (no time stepping), colliding clusters merge and move
  with the mean of the initial velocities over their index range.

Multipliers follow the recursion lam[i] = lam[i-1] - (u_i - u0_i) / n with
lam[0] = lam[n] = 0; they are piecewise constant in time, so the congestion
pressure is a finite sum of time atoms carrying the multiplier jumps.
States are right-continuous at event times.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cone import SpacingCone, project_onto_cone
from .errors import (
    AdmissibilityError,
    InputDomainError,
    InvariantViolationError,
    PreconditionError,
)

__all__ = [
    "ClusterPartition",
    "MicroState",
    "MergeEvent",
    "EventTimeline",
    "MultiplierVector",
    "PressureMeasure",
    "CheckReport",
    "validate_initial",
    "trajectory_at",
    "evolve",
    "multipliers_at",
    "pressure_measure",
    "verify_complementarity",
    "max_slope_ratio",
    "verify_oleinik",
    "verify_semigroup",
    "verify_estimates",
    "active_set_monotone",
]

# Relative tolerance deciding that a gap sits exactly at the minimal spacing.
# Event arithmetic is exact up to rounding, so this only absorbs a few ulps.
CONTACT_RTOL = 1e-12
# Collision instants closer than this are treated as simultaneous.
EVENT_TIE_TOL = 1e-13


def _scale(x: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(x))) if x.size else 1.0


@dataclass(frozen=True)
class ClusterPartition:
    """Ordered contiguous blocks (a, b), 0-based inclusive, covering 0..n-1."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = -1
        for a, b in self.blocks:
            if a != prev + 1 or b < a:
                raise InputDomainError("blocks must be ordered, contiguous and covering")
            prev = b

    @property
    def n(self) -> int:
        return self.blocks[-1][1] + 1

    def contact_set(self) -> frozenset[int]:
        """Active contacts as lambda indices j (between 0-based particles j-1, j)."""
        out = []
        for a, b in self.blocks:
            out.extend(range(a + 1, b + 1))
        return frozenset(out)


@dataclass(frozen=True)
class MicroState:
    """Snapshot of the particle system at one instant (right-continuous)."""

    time: float
    positions: np.ndarray
    velocities: np.ndarray
    partition: ClusterPartition
    cone: SpacingCone

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class MultiplierVector:
    """Contact multipliers lam[0..n] with lam[0] = lam[n] = 0."""

    lambdas: np.ndarray


@dataclass(frozen=True)
class MergeEvent:
    """One connected group of clusters coalescing at a single instant."""

    time: float
    merged_blocks: tuple[tuple[int, int], ...]
    post_velocity: float
    x_left: float
    jump_values: np.ndarray  # lambda jumps on contacts lo+1 .. hi (length hi-lo)

    @property
    def index_range(self) -> tuple[int, int]:
        return self.merged_blocks[0][0], self.merged_blocks[-1][1]

    def positions(self, two_r: float) -> np.ndarray:
        """Positions of the merged range lo..hi at the event instant."""
        return self.x_left + two_r * np.arange(self.jump_values.size + 1)


@dataclass(frozen=True)
class PressureMeasure:
    """Purely atomic congestion pressure: sum over events of delta_{t_e} x profile.

    Each atom is a MergeEvent, whose ``jump_values`` are the profile on contacts
    lo+1..hi (zero elsewhere): O(sum of merged range sizes) floats in all.
    """

    n: int
    atoms: tuple[MergeEvent, ...]

    def total_mass(self) -> float:
        """Integral of the interpolated jump profiles over events and (0,1)."""
        return sum(float(e.jump_values.sum()) / self.n for e in self.atoms)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single invariant check."""

    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


def _block_means(u0: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean of u0 over each block given block start indices (last block to end).

    Singleton blocks return u0 bitwise (the prefix-sum roundtrip would lose
    an ulp).
    """
    prefix = np.concatenate(([0.0], np.cumsum(u0)))
    bounds = np.append(starts, u0.size)
    counts = bounds[1:] - bounds[:-1]
    means = (prefix[bounds[1:]] - prefix[bounds[:-1]]) / counts
    single = counts == 1
    means[single] = u0[bounds[:-1][single]]
    return means


def _contact_starts(x: np.ndarray, two_r: float, tol: float) -> np.ndarray:
    """First indices of the maximal runs whose adjacent gaps sit at two_r within tol."""
    return np.flatnonzero(np.concatenate(([True], x[1:] - x[:-1] - two_r > tol)))


def _cluster_state(t: float, x: np.ndarray, u0: np.ndarray, starts: np.ndarray,
                   cone: SpacingCone) -> MicroState:
    """State with clusters beginning at ``starts``, each moving with its mean of u0."""
    bounds = np.append(starts, cone.n)
    blocks = tuple(zip(starts.tolist(), (bounds[1:] - 1).tolist()))
    u = np.repeat(_block_means(u0, starts), np.diff(bounds))
    return MicroState(float(t), x, u, ClusterPartition(blocks), cone)


def validate_initial(x0, u0, cone: SpacingCone, tol: float = CONTACT_RTOL) -> CheckReport:
    """Feasibility and contact/velocity compatibility of a discrete datum.

    A gap within tol * (1 + max|x0|) of two_r is a contact, and the pair it
    joins must move with velocities equal within tol * (1 + max|u0|).
    Raises InputDomainError unless x0 and u0 have the cone dimension.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if x0.shape != (cone.n,) or u0.shape != (cone.n,):
        raise InputDomainError("x0 and u0 must have the cone dimension")
    postol = tol * _scale(x0)
    slack = x0[1:] - x0[:-1] - cone.two_r
    worst_gap = float(np.min(slack))
    contact = slack <= postol
    worst_shear = float(np.max(np.where(contact, np.abs(u0[1:] - u0[:-1]), 0.0)))
    feasible = worst_gap >= -postol
    compatible = worst_shear <= tol * _scale(u0)
    return CheckReport(
        "initial_datum",
        feasible and compatible,
        max(-worst_gap, worst_shear),
        tol,
        f"min gap slack={worst_gap:.3e}, max contact shear={worst_shear:.3e}",
    )


def _admissible(x0, u0, cone: SpacingCone) -> tuple[np.ndarray, np.ndarray]:
    """(x0, u0) as float arrays; raises AdmissibilityError if validate_initial fails."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    report = validate_initial(x0, u0, cone)
    if not report.passed:
        raise AdmissibilityError(f"inadmissible initial datum: {report.detail}")
    return x0, u0


def trajectory_at(x0: np.ndarray, u0: np.ndarray, cone: SpacingCone, t: float) -> MicroState:
    """Closed-form state at time t: project the free flight, average per cluster.

    Positions are the metric projection of x0 + t*u0; the partition collects
    the maximal contact runs of the projected configuration; cluster
    velocities are the means of u0 over the cluster index ranges.  At an
    event instant this returns the post-merge state.
    """
    if t < 0.0:
        raise InputDomainError(f"time must be nonnegative, got {t}")
    x0, u0 = _admissible(x0, u0, cone)
    x = project_onto_cone(cone, x0 + t * u0)
    starts = _contact_starts(x, cone.two_r, CONTACT_RTOL * _scale(x))
    return _cluster_state(t, x, u0, starts, cone)


class _Clusters:
    """Append-only cluster store for the event-driven loop (merge-only).

    Dead clusters keep their data, so pre-event block records can be read
    back after a merge.
    """

    def __init__(self, x0, blocks, two_r):
        m = len(blocks)
        self.two_r = two_r
        self.start = [a for a, _ in blocks]
        self.end = [b for _, b in blocks]
        self.xl = [float(x0[a]) for a, _ in blocks]
        self.tr = [0.0] * m
        self.v = [0.0] * m
        self.alive = [True] * m
        self.prev = [k - 1 for k in range(m)]
        self.next = [k + 1 if k + 1 < m else -1 for k in range(m)]

    def new_cluster(self, a, b, xl, t, v, prev_id, next_id):
        self.start.append(a)
        self.end.append(b)
        self.xl.append(xl)
        self.tr.append(t)
        self.v.append(v)
        self.alive.append(True)
        self.prev.append(prev_id)
        self.next.append(next_id)
        return len(self.start) - 1

    def left_edge(self, k, t):
        return self.xl[k] + self.v[k] * (t - self.tr[k])

    def right_edge(self, k, t):
        return self.left_edge(k, t) + self.two_r * (self.end[k] - self.start[k])

    def hit_time(self, c, d):
        """Exact contact instant of neighbors c, d; None if not closing."""
        rel = self.v[c] - self.v[d]
        if rel <= 0.0:
            return None
        lead = (self.xl[d] - self.v[d] * self.tr[d]) \
            - (self.xl[c] - self.v[c] * self.tr[c]) \
            - self.two_r * (self.end[c] - self.start[c]) - self.two_r
        return lead / rel


def evolve(x0: np.ndarray, u0: np.ndarray, cone: SpacingCone, horizon: float) -> "EventTimeline":
    """Event-driven sticky evolution on [0, horizon].

    Collision instants are solved in closed form; contacts within
    EVENT_TIE_TOL of each other are treated as simultaneous and processed
    left to right with cascade re-checking (a merge may put an adjacent pair
    into closing contact at the same instant).  Every connected group that
    coalesces yields one MergeEvent.

    Cost: O(log n) heap work per candidate contact plus O(k log k) amortised
    for a cascade of k blocks (union-find with path compression, absorbed
    lists merged smaller into larger), so an n-way tie is near-linear.  The
    jump profile of each event costs O(merged range).
    """
    if horizon < 0.0:
        raise InputDomainError(f"horizon must be nonnegative, got {horizon}")
    x0, u0 = _admissible(x0, u0, cone)
    n = cone.n
    tol_gap = CONTACT_RTOL * _scale(x0)
    starts = _contact_starts(x0, cone.two_r, tol_gap)
    initial = _cluster_state(0.0, x0.copy(), u0, starts, cone)
    blocks = initial.partition.blocks
    prefix_u0 = np.concatenate(([0.0], np.cumsum(u0)))

    def range_mean(a, b):
        if a == b:
            return float(u0[a])
        return float((prefix_u0[b + 1] - prefix_u0[a]) / (b + 1 - a))

    jump_floor = -1e-12 * _scale(u0)
    cl = _Clusters(x0, blocks, cone.two_r)
    cl.v = initial.velocities[starts].tolist()

    heap: list[tuple[float, int, int, int]] = []
    counter = 0

    def push_candidate(c, d, t_now):
        nonlocal counter
        if c < 0 or d < 0:
            return
        t_hit = cl.hit_time(c, d)
        if t_hit is None:
            return
        t_hit = max(t_hit, t_now)
        if t_hit <= horizon:
            heapq.heappush(heap, (t_hit, counter, c, d))
            counter += 1

    for k in range(len(blocks) - 1):
        push_candidate(k, k + 1, 0.0)

    events: list[MergeEvent] = []

    while heap:
        t_e, _, c0, d0 = heapq.heappop(heap)
        if t_e > horizon:
            break
        if not (cl.alive[c0] and cl.alive[d0]):
            continue
        pairs = [(c0, d0)]
        while heap and heap[0][0] <= t_e + EVENT_TIE_TOL:
            _, _, cc, dd = heapq.heappop(heap)
            if cl.alive[cc] and cl.alive[dd]:
                pairs.append((cc, dd))
        parent: dict[int, int] = {}
        absorbed: dict[int, list[int]] = {}

        def find(k):
            root = k
            while not cl.alive[root]:
                root = parent[root]
            while k != root:
                parent[k], k = root, parent[k]
            return root

        new_roots: list[int] = []
        worklist = deque(sorted(pairs, key=lambda p: cl.start[p[0]]))
        while worklist:
            c, d = worklist.popleft()
            c = find(c)
            d = find(d)
            if c == d or cl.next[c] != d:
                continue
            a, b = cl.start[c], cl.end[d]
            m = cl.new_cluster(a, b, cl.left_edge(c, t_e), t_e, range_mean(a, b),
                               cl.prev[c], cl.next[d])
            cl.alive[c] = cl.alive[d] = False
            parent[c] = parent[d] = m
            if cl.prev[c] >= 0:
                cl.next[cl.prev[c]] = m
            if cl.next[d] >= 0:
                cl.prev[cl.next[d]] = m
            ids, other = absorbed.pop(c, [c]), absorbed.pop(d, [d])
            if len(ids) < len(other):
                ids, other = other, ids
            ids.extend(other)
            absorbed[m] = ids
            new_roots.append(m)
            # a merge can trigger an immediate further contact at this instant
            for left, right in ((cl.prev[m], m), (m, cl.next[m])):
                if left < 0 or right < 0:
                    continue
                gap = cl.left_edge(right, t_e) - cl.right_edge(left, t_e) - cone.two_r
                if gap <= tol_gap and cl.v[left] > cl.v[right]:
                    worklist.append((left, right))
        roots = sorted((m for m in new_roots if cl.alive[m]), key=lambda m: cl.start[m])
        for m in roots:
            pre_ids = sorted(absorbed[m], key=lambda k: cl.start[k])
            pre_blocks = tuple((cl.start[k], cl.end[k]) for k in pre_ids)
            a, b = cl.start[m], cl.end[m]
            v_bar = cl.v[m]
            u_pre = np.empty(b + 1 - a)
            for k in pre_ids:
                u_pre[cl.start[k] - a:cl.end[k] + 1 - a] = cl.v[k]
            jump = -np.cumsum(v_bar - u_pre)[:-1] / n
            if jump.size and jump.min() < jump_floor:
                raise InvariantViolationError("negative multiplier jump at a merge")
            events.append(MergeEvent(
                time=float(t_e),
                merged_blocks=pre_blocks,
                post_velocity=v_bar,
                x_left=float(cl.xl[m]),
                jump_values=jump,
            ))
            push_candidate(cl.prev[m], m, t_e)
            push_candidate(m, cl.next[m], t_e)

    return EventTimeline(cone, float(horizon), x0.copy(), u0.copy(),
                         blocks, tuple(events), initial)


@dataclass(frozen=True)
class EventTimeline:
    """Full piecewise-linear-in-time solution: initial state plus merge events."""

    cone: SpacingCone
    horizon: float
    x0: np.ndarray
    u0: np.ndarray
    initial_blocks: tuple[tuple[int, int], ...]
    events: tuple[MergeEvent, ...]
    initial: MicroState

    @property
    def n(self) -> int:
        return self.cone.n

    def event_times(self) -> np.ndarray:
        return np.array([e.time for e in self.events])

    def state_at(self, t: float) -> MicroState:
        (state,) = self.states_at([t])
        return state

    def states_at(self, times) -> list[MicroState]:
        """Right-continuous states at the given ascending times."""
        return list(self.iter_states(times))

    def iter_states(self, times):
        """Generator form of states_at; one incremental pass over the events.

        The blocks live in arrays of length n: a block-start mask plus the
        left edge, reference time and velocity stored at each block start.
        Cost: O(merged range) per event and O(n) per state.  Raises
        InvariantViolationError if an event does not cover whole current
        blocks.
        """
        times = [float(t) for t in times]
        hi_t = self.horizon * (1.0 + 1e-12)
        if any(t < 0.0 or t > hi_t for t in times):
            raise InputDomainError("query times must lie in [0, horizon]")
        if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
            raise InputDomainError("query times must be ascending")
        n = self.n
        two_r = self.cone.two_r
        starts0 = np.array([a for a, _ in self.initial_blocks])
        # is_start[n] is a sentinel, so block ends are the indices before a start
        is_start = np.zeros(n + 1, dtype=bool)
        is_start[starts0] = True
        is_start[n] = True
        x_left = np.zeros(n)
        t_ref = np.zeros(n)
        v = np.zeros(n)
        x_left[starts0] = self.x0[starts0]
        v[starts0] = _block_means(self.u0, starts0)
        offsets = np.arange(n)
        ev = 0
        for t in times:
            while ev < len(self.events) and self.events[ev].time <= t:
                e = self.events[ev]
                lo, hi = e.index_range
                if not (0 <= lo <= hi < n and is_start[lo] and is_start[hi + 1]):
                    raise InvariantViolationError(
                        f"event at t={e.time} merges {lo}..{hi}, which is not a union "
                        "of current blocks")
                is_start[lo + 1:hi + 1] = False
                x_left[lo] = e.x_left
                t_ref[lo] = e.time
                v[lo] = e.post_velocity
                ev += 1
            starts = np.flatnonzero(is_start[:n])
            ends = np.flatnonzero(is_start[1:])
            sizes = ends + 1 - starts
            x = (np.repeat(x_left[starts] + v[starts] * (t - t_ref[starts]), sizes)
                 + two_r * (offsets - np.repeat(starts, sizes)))
            u = np.repeat(v[starts], sizes)
            blocks = tuple(zip(starts.tolist(), ends.tolist()))
            yield MicroState(t, x, u, ClusterPartition(blocks), self.cone)


def multipliers_at(state: MicroState, u0: np.ndarray) -> MultiplierVector:
    """Multipliers of a state via the recursion lam[i] = lam[i-1] - (u_i - u0_i)/n.

    lam[0] = 0 by construction; lam[n] vanishes because cluster means preserve
    the velocity sum, and a violation signals a corrupted state.
    """
    u0 = np.asarray(u0, dtype=float)
    n = state.n
    lam = np.concatenate(([0.0], -np.cumsum(state.velocities - u0) / n))
    if abs(lam[-1]) > 1e-12 * _scale(u0):
        raise InvariantViolationError(
            f"lambda_n = {lam[-1]:.3e} does not vanish; state inconsistent with u0"
        )
    lam[-1] = 0.0
    return MultiplierVector(lam)


def pressure_measure(timeline: EventTimeline) -> PressureMeasure:
    """Atomic pressure: one atom per event carrying the multiplier jump."""
    jump_floor = -1e-12 * _scale(timeline.u0)
    for e in timeline.events:
        if e.jump_values.size and e.jump_values.min() < jump_floor:
            raise InvariantViolationError("negative pressure atom profile")
    return PressureMeasure(timeline.n, timeline.events)


def verify_complementarity(state: MicroState, mult: MultiplierVector,
                           tol: float = 1e-10) -> CheckReport:
    """Signorini check: lam >= 0 and lam_j * (gap_j - two_r) = 0 within tol."""
    lam = mult.lambdas[1:-1]
    gaps = state.positions[1:] - state.positions[:-1]
    slack = gaps - state.cone.two_r
    compl = float(np.max(np.abs(lam * slack))) if lam.size else 0.0
    min_lam = float(mult.lambdas.min())
    passed = compl <= tol and min_lam >= -tol
    return CheckReport("complementarity", passed, max(compl, -min_lam), tol,
                       f"max lam*slack={compl:.3e}, min lam={min_lam:.3e}")


def max_slope_ratio(t: float, x: np.ndarray, u: np.ndarray) -> float:
    """Largest t * (u_i - u_{i-1}) / (x_i - x_{i-1}) over adjacent nodes; 0 for one node."""
    du = u[1:] - u[:-1]
    dx = x[1:] - x[:-1]
    return float(np.max(t * du / dx)) if du.size else 0.0


def verify_oleinik(state: MicroState) -> CheckReport:
    """One-sided slope bound t * (u_i - u_{i-1}) / (x_i - x_{i-1}) < 1, strictly."""
    if state.time <= 0.0:
        raise PreconditionError("the Oleinik estimate is vacuous at t = 0")
    ratio = max_slope_ratio(state.time, state.positions, state.velocities)
    return CheckReport("oleinik", ratio < 1.0, ratio, 1.0,
                       f"max t*du/dx = {ratio:.6f}")


def verify_semigroup(timeline: EventTimeline, s: float, t: float,
                     tol: float = 1e-9) -> CheckReport:
    """Restarting from x(s), u(s) must reproduce x(t) and the cluster means."""
    if not (0.0 <= s < t <= timeline.horizon):
        raise InputDomainError("need 0 <= s < t <= horizon")
    st_s, st_t = timeline.states_at([s, t])
    z = project_onto_cone(timeline.cone, st_s.positions + (t - s) * st_s.velocities)
    pos_err = float(np.max(np.abs(z - st_t.positions)))
    starts = np.array([a for a, _ in st_t.partition.blocks])
    means = _block_means(st_s.velocities, starts)
    u_expect = np.repeat(means, [b - a + 1 for a, b in st_t.partition.blocks])
    vel_err = float(np.max(np.abs(u_expect - st_t.velocities)))
    err = max(pos_err, vel_err)
    return CheckReport("semigroup", err <= tol, err, tol,
                       f"pos={pos_err:.3e}, vel={vel_err:.3e} at (s={s}, t={t})")


def verify_estimates(timeline: EventTimeline) -> dict:
    """Energy dissipation and sup bounds along the whole timeline.

    Passes iff the rescaled kinetic energy is nonincreasing across events,
    never exceeds its initial value, and all multiplier statistics are finite.
    Sup statistics track every value the multipliers ever take (they change
    only at events).
    """
    n = timeline.n
    u = timeline.initial.velocities.copy()
    energy = [float(np.dot(u, u) / n)]
    lam = np.zeros(n + 1)
    sup_u = float(np.max(np.abs(u))) if n else 0.0
    sup_nlam = 0.0
    sup_njump = 0.0
    tol = 1e-12 * (1.0 + energy[0])
    monotone = True
    for e in timeline.events:
        lo, hi = e.index_range
        seg = u[lo:hi + 1]
        e_pre = energy[-1]
        e_post = e_pre + (seg.size * e.post_velocity ** 2 - float(np.dot(seg, seg))) / n
        if e_post > e_pre + tol:
            monotone = False
        u[lo:hi + 1] = e.post_velocity
        lam[lo + 1:lo + 1 + e.jump_values.size] += e.jump_values
        changed = lam[lo:hi + 2]
        sup_nlam = max(sup_nlam, n * float(np.max(np.abs(changed))))
        dloc = np.diff(lam[max(lo - 1, 0):min(hi + 2, n) + 1])
        if dloc.size:
            sup_njump = max(sup_njump, n * float(np.max(np.abs(dloc))))
        sup_u = max(sup_u, abs(e.post_velocity))
        energy.append(e_post)
    bounded = np.isfinite(sup_u) and np.isfinite(sup_nlam) and np.isfinite(sup_njump)
    passed = monotone and bounded and energy[-1] <= energy[0] + tol
    return {
        "passed": bool(passed),
        "energy_sequence": energy,
        "sup_velocity": sup_u,
        "sup_velocity_l2": float(np.sqrt(max(energy))),
        "sup_n_lambda": sup_nlam,
        "sup_n_lambda_jump": sup_njump,
        "initial_energy": energy[0],
        "final_energy": energy[-1],
    }


def active_set_monotone(timeline: EventTimeline) -> bool:
    """Contacts never disappear: every event coarsens the current partition.

    Each merged range must tile a set of whole current blocks, and event
    times must be nondecreasing.
    """
    reg = {a: b for a, b in timeline.initial_blocks}
    t_prev = 0.0
    for e in timeline.events:
        if e.time < t_prev:
            return False
        t_prev = e.time
        lo, hi = e.index_range
        a = lo
        while a <= hi:
            if a not in reg:
                return False
            a = reg.pop(a) + 1
        if a != hi + 1:
            return False
        reg[lo] = hi
    return True
