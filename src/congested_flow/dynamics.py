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

A cluster partition is always one ascending int array of block starts
(first entry 0): block k is starts[k] .. starts[k+1] - 1, the last one runs
to n - 1.  ``evolve`` keys its clusters by the same starts: each cluster's
data sits at its first particle.

A timeline holds its events once, as columns that ``evolve`` writes from its
own flat lists: the times, merged blocks, post velocities, left edges and
one velocity step per merged block, from which the timeline builds its
flat read-only array of multiplier jumps on first read.  The congested
region only grows, so the events form a merge forest: each block an event
merges is an initial cluster or the range of exactly one earlier event, its
maker.  That forest is the only reading of a timeline.  ``EventRecord``
reads what the checks need straight off the columns through it, and the
checks read event positions through ``EventTimeline.event_positions``.
``EventTimeline.iter_states`` is the one reader of an instant: it builds
the state from the blocks alive then, each rigid from its maker's left
edge, and ``multipliers_at`` is the one formula for a state's
multipliers.  The pressure measure and the export read the columns too,
and ``EventTimeline.events`` views the rows as ``MergeEvent`` objects,
built on first read.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .cone import SpacingCone, _check_block_starts, projection_blocks
from .errors import (
    AdmissibilityError,
    InputDomainError,
    InvariantViolationError,
    PreconditionError,
)
from .tolerances import CONTACT_RTOL, ENERGY_RTOL, EVENT_TIE_TOL, JUMP_FLOOR_RTOL, \
    LAMBDA_CLOSURE_RTOL, QUERY_HORIZON_RTOL, TOL_COMPLEMENTARITY, TOL_SEMIGROUP, contact_tol

__all__ = [
    "MicroState",
    "MergeEvent",
    "EventTimeline",
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
    "restart_check",
    "verify_estimates",
    "EventRecord",
    "worst_of",
    "active_set_monotone",
]


def _scale(x: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(x))) if x.size else 1.0


@dataclass(frozen=True)
class MicroState:
    """Snapshot of the particle system at one instant (right-continuous).

    ``starts`` is the cluster partition: the first particle of each contact
    cluster, a strictly ascending int array that begins at 0 and stays below
    n.  Every construction checks that with one vectorised test.
    """

    time: float
    positions: np.ndarray
    velocities: np.ndarray
    starts: np.ndarray
    cone: SpacingCone

    def __post_init__(self):
        _check_block_starts(self.starts, self.n)

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class MergeEvent:
    """One connected group of clusters coalescing at a single instant: a row
    of ``EventTimeline``'s columns, viewed as an object (``timeline.events``).

    It is also the event's pressure atom: ``jump_values`` are the multiplier
    jumps on contacts lo+1..hi of ``index_range``, zero elsewhere, a view
    into the timeline's flat ``jumps``, which reading the views builds.
    """

    time: float
    merged_blocks: tuple[tuple[int, int], ...]
    post_velocity: float
    x_left: float
    jump_values: np.ndarray

    @property
    def index_range(self) -> tuple[int, int]:
        return self.merged_blocks[0][0], self.merged_blocks[-1][1]


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


def _contact_starts(x: np.ndarray, two_r: float) -> np.ndarray:
    """First indices of the maximal runs whose adjacent gaps sit at two_r
    within ``contact_tol(x)``."""
    return np.flatnonzero(np.concatenate(([True], x[1:] - x[:-1] - two_r > contact_tol(x))))


def _cluster_state(t: float, x: np.ndarray, u0: np.ndarray, starts: np.ndarray,
                   cone: SpacingCone) -> MicroState:
    """State with clusters beginning at ``starts``, each moving with its mean of u0."""
    u = np.repeat(_block_means(u0, starts), np.diff(np.append(starts, cone.n)))
    return MicroState(float(t), x, u, starts, cone)


def validate_initial(x0, u0, cone: SpacingCone) -> CheckReport:
    """Feasibility and contact/velocity compatibility of a discrete datum.

    A gap within ``contact_tol(x0)`` = CONTACT_RTOL * (1 + (max x0 - min x0))
    + 8 eps max|x0| of two_r is a contact, and no gap may fall short of two_r
    by more; the pair a contact joins must move with velocities equal within
    CONTACT_RTOL * (1 + max|u0|).  The position rule depends on the span, not
    the offset, so a translated datum gets the same contacts.  Raises
    InputDomainError unless x0 and u0 have the cone dimension and finite
    entries, naming the first entry that is not finite.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if x0.shape != (cone.n,) or u0.shape != (cone.n,):
        raise InputDomainError("x0 and u0 must have the cone dimension")
    for name, a in (("x0", x0), ("u0", u0)):
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise InputDomainError(f"{name}[{bad[0]}] = {a[bad[0]]} is not finite")
    postol = contact_tol(x0)
    slack = x0[1:] - x0[:-1] - cone.two_r
    worst_gap = float(np.min(slack))
    contact = slack <= postol
    worst_shear = float(np.max(np.where(contact, np.abs(u0[1:] - u0[:-1]), 0.0)))
    feasible = worst_gap >= -postol
    compatible = worst_shear <= CONTACT_RTOL * _scale(u0)
    return CheckReport(
        "initial_datum",
        feasible and compatible,
        max(-worst_gap, worst_shear),
        CONTACT_RTOL,
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

    The projection runs PAVA over the initial contact clusters, which
    validate_initial certifies rigid up to the contact tolerance of each
    pair; so it deviates from the per-particle projection by at most the
    spread of the translated free flight inside one cluster.
    """
    if t < 0.0:
        raise InputDomainError(f"time must be nonnegative, got {t}")
    x0, u0 = _admissible(x0, u0, cone)
    runs = _contact_starts(x0, cone.two_r)
    x, _ = projection_blocks(cone, x0 + t * u0, runs)
    starts = _contact_starts(x, cone.two_r)
    return _cluster_state(t, x, u0, starts, cone)


# An instant whose tie group holds at least this many pairs goes to
# _merge_chains, a smaller one to the item loop: the two cost the same at
# about 48 pairs on a later instant, and at 48 to 64 on a first one
_CHAIN_MIN = 48


def _gather(values: list, idx: np.ndarray, dtype: type) -> np.ndarray:
    """values[i] for each i of the nonempty int array idx, as an array of dtype."""
    ix = idx.tolist()
    return np.fromiter(itemgetter(*ix)(values) if len(ix) > 1 else (values[ix[0]],), dtype, len(ix))


def _merge_chains(a, s, t_e, state, prefix_u0, two_r, reach):
    """Run the initial items of an instant's worklist at once, with the
    arithmetic and the decisions of ``evolve``'s item loop.

    ``a`` and ``s`` hold the instant's live candidates (a, s), sorted by a
    and without repeats, as int arrays; ``state`` is evolve's lists (end,
    head, xl, tr, v, stamp).  The pairs form chains, maximal runs with s_i
    = a_{i+1}, and the loop merges each chain into its first start c, step
    j giving it the velocity (P[b_j + 1] - P[c]) / (b_j + 1 - c),
    with P = ``prefix_u0`` and b_j the end of s_j before the instant: one
    numpy pass over the items.  After the first step the left edge only
    gains v * 0.0 terms, which keep its bits unless it is a zero, and a sum
    of signed zeros is -0.0 only if every term is.  So the cascade checks
    come to one per side and chain, in O(1) Python work each.  The left one
    fires if the gap to the left neighbour is within ``reach`` and the
    neighbour is faster than the chain's slowest step, unless the chain
    before has queued c; the right one runs at the last step, against the
    right neighbour as it was before the instant.  The chains run left to
    right and append left before right, as the loop does; it runs every
    appended item after the initial ones, so the step at which a check
    fires does not matter.

    Writes each chain's merged block.  Over its range head leads to c, at
    the absorbed ends as the loop sets it and at inner particles, which no
    walk reads, and every stamp rises to one above the range's largest, so
    a queued candidate on any start in it goes stale.  Returns the appended
    items, each c's (end, v) before the instant, and the start, end and
    velocity before the instant of every block the chains merged.  A
    velocity that is not finite (a difference of prefix sums overflows)
    becomes a post velocity, which the timeline's constructor rejects, as
    it does the item loop's.
    """
    end, head, xl, tr, v, stamp = state
    n = len(end)
    b = _gather(end, s, np.intp)
    f = np.flatnonzero(np.concatenate(([True], s[:-1] != a[1:])))
    last = np.concatenate((f[1:], [a.size])) - 1
    starts, ends = a[f], b[last]
    c = np.repeat(starts, last + 1 - f)
    vel = (prefix_u0[b + 1] - prefix_u0[c]) / (b + 1 - c)
    mem = np.concatenate((a, s[last]))
    merged = mem, np.concatenate((s - 1, ends)), _gather(v, mem, float)

    appended, pre, queued = [], {}, -1
    chains = zip(f.tolist(), last.tolist(), starts.tolist(), ends.tolist(), vel[f].tolist(),
                 vel[last].tolist(), np.fmin.reduceat(vel, f).tolist())
    for i, j, c, e, v_first, v_last, slowest in chains:
        pre[c] = end[c], v[c]
        x = xl[c] + v[c] * (t_e - tr[c])
        if 0 < c != queued:
            left = head[c - 1]
            gap = (x + v_first * (t_e - t_e)) \
                - ((xl[left] + v[left] * (t_e - tr[left])) + two_r * (end[left] - left)) - two_r
            if gap <= reach and v[left] > slowest:
                appended.append((left, c))
        if x == 0.0 and i < j:  # the steps after the first add v * 0.0
            x += -0.0 if np.signbit(vel[i:j]).all() else 0.0
        xl[c], tr[c], v[c], end[c] = x, t_e, v_last, e
        head[c:e + 1] = [c] * (e + 1 - c)
        stamp[c:e + 1] = [max(stamp[c:e + 1]) + 1] * (e + 1 - c)
        right = e + 1
        if right < n:
            gap = (xl[right] + v[right] * (t_e - tr[right])) \
                - ((x + v_last * (t_e - t_e)) + two_r * (e - c)) - two_r
            if gap <= reach and v_last > v[right]:
                appended.append((c, right))
                queued = right
    return appended, pre, merged


def _chain_rows(merged, extra, finals, v_post):
    """The rows of an instant that ``_merge_chains`` resolved.

    ``merged`` is its (start, end, velocity) of every block the chains
    merged, as before the instant, ``extra`` the same as tuples for the
    blocks that cascade items merged, ``finals`` the instant's final blocks
    in order and ``v_post`` their velocities.  Each final block takes the
    run of blocks it covers.  Returns the flat (start, end) pairs, the
    velocity steps v_post - u_pre and the end of each event's run.
    """
    starts, ends, w = merged
    if extra:
        starts, ends, w = (np.concatenate((col, add)) for col, add in zip(merged, zip(*extra)))
    order = np.argsort(starts)
    starts, ends, w = starts[order], ends[order], w[order]
    firsts = np.searchsorted(starts, finals)
    runs = np.concatenate((firsts[1:], [starts.size]))
    flat = np.empty(2 * starts.size, dtype=np.intp)
    flat[0::2], flat[1::2] = starts, ends
    return flat, np.repeat(v_post, runs - firsts) - w, runs


def evolve(x0: np.ndarray, u0: np.ndarray, cone: SpacingCone, horizon: float) -> "EventTimeline":
    """Event-driven sticky evolution on [0, horizon].

    Collision instants are solved in closed form; contacts within
    EVENT_TIE_TOL of each other are treated as simultaneous and processed
    left to right with cascade re-checking (a merge may put an adjacent pair
    into closing contact at the same instant).  Every connected group that
    coalesces yields one event, one row of the timeline's columns.  The
    initial contacts and the cascade test both use ``contact_tol(x0)`` =
    CONTACT_RTOL * (1 + (max x0 - min x0)) + 8 eps max|x0|, computed once.
    Raises InputDomainError unless horizon >= 0 (a NaN fails) and every
    entry of x0 and u0 is finite (``validate_initial``), before any work.

    Each cluster is keyed by its first particle a, in lists of length n: its
    last particle end[a], its left edge xl[a] at time tr[a] and its velocity
    v[a] sit at a, and head[end[a]] = a sits at its last particle.  So the
    right neighbour is end[a] + 1 and the left one head[a - 1].  A merge
    rewrites the left cluster in place; an absorbed start keeps its old data,
    and head[end[s]] leads from it towards the cluster that absorbed it.  A
    candidate contact carries the stamps of both of its starts and counts
    only if neither cluster has changed since it was queued.

    Cost: the first candidates take one vectorised pass over the initial
    starts and one sort, O(n log n) in numpy, and are read in that order
    off their columns; every later candidate costs O(log n) heap work.  One
    pop site takes the lesser head of the two, if it is due: the first live
    candidate opens an instant at its t_hit, later ones within
    EVENT_TIE_TOL of it join, and the instant is resolved once nothing more
    is due.  An instant whose tie group holds fewer than ``_CHAIN_MIN``
    pairs runs its worklist item by item, with no numpy routine: O(k log k)
    for sorting its k pairs and pre-merge records, each contact queued at
    most once, and a walk of head[end[.]] once per nesting level of the
    merges an item went through at that instant.  Whether the first
    candidates hold a larger tie is one O(1) probe per instant.  A larger
    one (an n-way tie) takes its due first candidates in one slice:
    ``_merge_chains`` merges each chain of adjacent pairs in one numpy pass
    and O(1) Python work per chain, the item loop runs only the cascade
    items it appended and ``_chain_rows`` lays out the rows; the events
    keep their bits.  Both kinds of instant end in one tail: each final
    block appends its event and queues its neighbour pairs.  Each merged
    block adds one velocity step, post velocity minus its own, so an event
    costs O(blocks it merges) to store, whatever its range; the multiplier
    jumps are built only when read (``EventTimeline.jumps``).  The lists
    cost O(n) to set up.
    """
    if not 0.0 <= horizon:
        raise InputDomainError(f"horizon must be nonnegative, got {horizon}")
    x0, u0 = _admissible(x0, u0, cone)
    n = cone.n
    two_r = cone.two_r
    tol_gap = contact_tol(x0)
    starts = _contact_starts(x0, two_r)
    initial = _cluster_state(0.0, x0.copy(), u0, starts, cone)
    prefix_u0 = np.concatenate(([0.0], np.cumsum(u0)))

    end = np.zeros(n, dtype=np.intp)
    head = np.zeros(n, dtype=np.intp)
    end[starts] = np.append(starts[1:], n) - 1
    head[end[starts]] = starts
    end, head = end.tolist(), head.tolist()
    xl = x0.tolist()
    tr = [0.0] * n
    v = initial.velocities.tolist()
    stamp = [0] * n  # bumped whenever the cluster keyed at a start changes
    state = (end, head, xl, tr, v, stamp)

    # the first candidates, (a, s) adjacent initial starts, with the neighbour
    # push's arithmetic at t_e = 0: the `- v * 0.0` terms keep the signs of
    # zeros, and np.where(0.0 > q, 0.0, q) is max(q, 0.0)
    a0, s0 = starts[:-1], starts[1:]
    closing = np.flatnonzero(initial.velocities[a0] - initial.velocities[s0] > 0.0)
    a0, s0 = a0[closing], s0[closing]
    va, vs = initial.velocities[a0], initial.velocities[s0]
    q = ((x0[s0] - vs * 0.0) - (x0[a0] - va * 0.0) - two_r * (s0 - 1 - a0) - two_r) / (va - vs)
    t_hit = np.where(0.0 > q, 0.0, q)
    due = np.flatnonzero(t_hit <= horizon)
    a0, s0, t_hit = a0[due], s0[due], t_hit[due]
    # sorted ascending by their keys (t_hit, start order) into columns read
    # from fi on; later candidates, (t_hit, counter, a, s, stamps), go to a
    # heap.  A first candidate wins a tie in t_hit, so taking the lesser of
    # the two heads pops every candidate in one total order
    order = np.argsort(t_hit, kind="stable")
    first_a, first_s = a0[order], s0[order]
    ft, fa, fs = t_hit[order].tolist(), first_a.tolist(), first_s.tolist()
    fi, nf = 0, len(ft)
    heap: list[tuple[float, int, int, int, int, int]] = []
    counter = 0
    chain_min = _CHAIN_MIN

    # the columns: per event its time, post velocity and left edge, and the
    # offset of its merged blocks; per merged block its start and end in the
    # flat `blocks`, and its velocity step in `diffs`
    times, post, left_edges, block_off = [], [], [], [0]
    blocks: list[int] = []
    diffs: list[float] = []

    # the live candidates (a, s) of the open instant, the due first
    # candidates it took at once, and the latest t_hit that is due
    pairs, taken, t_max = [], None, horizon
    while True:
        if fi < nf and (not heap or ft[fi] <= heap[0][0]):
            due = ft[fi] <= t_max
            if due:
                t_hit, a, s, sa, ss = ft[fi], fa[fi], fs[fi], 0, 0
                fi += 1
        else:
            due = heap and heap[0][0] <= t_max
            if due:
                t_hit, _, a, s, sa, ss = heapq.heappop(heap)
        if due:
            if stamp[a] == sa and stamp[s] == ss:
                if not pairs:
                    t_e, t_max = t_hit, t_hit + EVENT_TIE_TOL
                    if fi + chain_min <= nf and ft[fi + chain_min - 1] <= t_max:
                        cut = bisect_right(ft, t_max, fi)
                        taken = first_a[fi:cut], first_s[fi:cut]
                        fi = cut
                pairs.append((a, s))
            continue
        if not pairs:
            break
        if taken is not None or len(pairs) >= chain_min:
            # a pair pushed by both blocks it joins comes twice
            pa, ps = np.array(sorted(set(pairs)), dtype=np.intp).T
            if taken is not None:
                ta, ts = taken
                if times:  # blocks have merged: drop the stale first candidates
                    stamps = _gather(stamp, np.concatenate((ta, ts)), np.intp)
                    live = (stamps == 0).reshape(2, -1).all(0)
                    ta, ts = ta[live], ts[live]
                pa, ps = np.concatenate((ta, pa)), np.concatenate((ts, ps))
                order = np.argsort(pa)
                pa, ps = pa[order], ps[order]
            worklist, pre, merged = _merge_chains(pa, ps, t_e, state, prefix_u0, two_r, tol_gap)
            chain_starts = len(pre)
        else:
            worklist, pre, merged = sorted(pairs), {}, None
        pairs, taken, t_max = [], None, horizon
        # pre maps each touched start to its (end, v) before the instant.
        # An item (l, r) merges the cluster holding l with the one holding r
        # if they are adjacent.  When queued, the cluster holding l ends at
        # r - 1, and it keeps particle r - 1 as it grows; so the item merges
        # across r - 1 | r if r is still a start and is a no-op otherwise.
        # A second item with the same right end r runs after the first, finds
        # r no longer a start and does nothing, so it is not queued.  Once the
        # first has run, r is no longer a live start, so no later cascade
        # check has right end r and the entries are never removed.  After
        # _merge_chains the right ends of its pairs are absorbed, so only its
        # appended items are queued.
        queued = {s for _, s in worklist}
        i = 0
        while i < len(worklist):
            c, d = worklist[i]
            i += 1
            while head[end[c]] != c:
                c = head[end[c]]
            while head[end[d]] != d:
                d = head[end[d]]
            if c == d or end[c] + 1 != d:
                continue
            pre.setdefault(c, (end[c], v[c]))
            pre.setdefault(d, (end[d], v[d]))
            b = end[d]
            xl[c] = xl[c] + v[c] * (t_e - tr[c])
            tr[c] = t_e
            # Python floats via .item(), with numpy's IEEE bits; a list of n + 1
            # boxed floats would cost 32 bytes per particle
            v[c] = (prefix_u0.item(b + 1) - prefix_u0.item(c)) / (b + 1 - c)
            end[c] = b
            head[b] = c
            stamp[c] += 1
            stamp[d] += 1
            # a merge can trigger an immediate further contact at this instant
            for left, right in ((head[c - 1], c), (c, b + 1)):
                if not 0 < right < n or right in queued:
                    continue
                gap = (xl[right] + v[right] * (t_e - tr[right])) \
                    - ((xl[left] + v[left] * (t_e - tr[left])) + two_r * (end[left] - left)) \
                    - two_r
                if gap <= tol_gap and v[left] > v[right]:
                    worklist.append((left, right))
                    queued.add(right)
        # the final blocks, one event each; a start absorbed at this instant is none
        finals = [a for a in sorted(pre) if head[end[a]] == a]
        if merged is None:
            for a in finals:
                v_post, k = v[a], a
                while k <= end[a]:
                    e, w = pre[k]
                    blocks += k, e
                    diffs.append(v_post - w)
                    k = e + 1
                block_off.append(len(diffs))
        else:
            flat, steps, ends = _chain_rows(
                merged, [(k, *pre[k]) for k in list(pre)[chain_starts:]], finals,
                [v[a] for a in finals])
            block_off.extend((len(diffs) + ends).tolist())
            blocks += flat.tolist()
            diffs += steps.tolist()
        for a in finals:
            b = end[a]
            times.append(t_e)
            post.append(v[a])
            left_edges.append(xl[a])
            # queue the exact contact instant of each neighbour pair that closes
            for left, right in ((head[a - 1], a), (a, b + 1)):
                if 0 < right < n and v[left] > v[right]:
                    lead = (xl[right] - v[right] * tr[right]) - (xl[left] - v[left] * tr[left]) \
                        - two_r * (end[left] - left) - two_r
                    t_hit = max(lead / (v[left] - v[right]), t_e)
                    if t_hit <= horizon:
                        heapq.heappush(heap, (t_hit, counter, left, right, stamp[left],
                                              stamp[right]))
                        counter += 1

    return EventTimeline(cone, float(horizon), x0.copy(), u0.copy(), initial, np.array(times),
                         np.array(blocks, dtype=np.intp).reshape(-1, 2), np.array(block_off),
                         np.array(post), np.array(left_edges), np.array(diffs, dtype=float))


def _running_sums(values: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` within each run off[k]:off[k + 1], each
    added in sequence from the run's first entry: the runs of one length are
    the rows of one array, summed by one np.add.accumulate along the rows.
    O(entries + runs log runs), with one numpy pass per distinct length."""
    out = np.empty_like(values)
    length = np.diff(off)
    order = np.argsort(length, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(length[order])) + 1):
        if group.size:
            rows = off[group, None] + np.arange(length[group[0]])
            out[rows] = np.add.accumulate(values[rows], axis=1)
    return out


def _check_jumps(jumps: np.ndarray, u0: np.ndarray) -> None:
    """Raises InvariantViolationError unless every multiplier jump is finite
    and none lies below the floor -JUMP_FLOOR_RTOL * (1 + max|u0|); a NaN
    passes every comparison with the floor, so finiteness is checked on its
    own."""
    if not np.all(np.isfinite(jumps)):
        raise InvariantViolationError(
            "an event carries a non-finite time, post velocity, left edge or jump")
    lowest = float(jumps.min(initial=np.inf))
    floor = -JUMP_FLOOR_RTOL * _scale(u0)
    if lowest < floor:
        raise InvariantViolationError(
            f"negative multiplier jump {lowest:.3e} below the floor {floor:.3e}")


@dataclass(frozen=True)
class EventTimeline:
    """Full piecewise-linear-in-time solution: initial state plus merge events.

    The events are columns, one row per event in time order: ``times``,
    ``post`` (the post velocity) and ``x_left`` (the left edge of the merged
    range at the event instant), and the merged blocks, event k's being rows
    block_off[k]:block_off[k + 1] of the (start, end) pairs ``blocks``, each
    with its velocity step ``dv``: the post velocity minus the block's
    velocity just before the event.  Its merged range lo..hi (``lo``,
    ``hi``), the ``kept`` entries of each block (its width, one fewer on the
    event's last block) and the offsets ``jump_off`` of its hi - lo
    multiplier jumps in the flat array ``jumps`` are derived once, here.
    ``jumps`` is built on first read, and ``events`` views the rows as
    ``MergeEvent`` objects, built on first read.

    Raises InputDomainError unless 0 <= horizon, and InvariantViolationError
    unless ``dv`` has one entry per block, every event time, post velocity,
    left edge and velocity step is finite, the event times are
    nondecreasing inside [0, horizon] and the jump at each block's last
    kept entry is finite and not below the floor
    -JUMP_FLOOR_RTOL * (1 + max|u0|) (``_check_jumps``).  Along one block
    the running sum of the steps moves by the same step at every entry, so
    its jumps are monotone there.  They fall towards the last entry if the
    step is positive; otherwise they rise from a first entry at or above
    the last one of the block before (or above 0 on an event's first
    block), and adding a step rounds monotonically too.  So the last ends
    hold every lowest jump, and every overflow: they are the running sums
    of kept * dv per event (``_running_sums``), and all of it takes
    O(blocks) vectorised work, whatever the ranges' size.  Building
    ``jumps`` checks every jump the same way.  Whether each event merges
    whole current blocks depends on the events before it, so the merge
    forest (``_forest``) checks that, once, for every reader.
    """

    cone: SpacingCone
    horizon: float
    x0: np.ndarray
    u0: np.ndarray
    initial: MicroState
    times: np.ndarray
    blocks: np.ndarray
    block_off: np.ndarray
    post: np.ndarray
    x_left: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.horizon:
            raise InputDomainError(f"horizon must be nonnegative, got {self.horizon}")
        lo, hi = self.blocks[self.block_off[:-1], 0], self.blocks[self.block_off[1:] - 1, 1]
        kept = self.blocks[:, 1] - self.blocks[:, 0] + 1
        kept[self.block_off[1:] - 1] -= 1
        # derived columns: the dataclass is frozen, so they go straight into the
        # instance dict, as cached_property's values do
        vars(self).update(lo=lo, hi=hi, kept=kept,
                          jump_off=np.concatenate(([0], np.cumsum(hi - lo))))
        dv, times = self.dv, self.times
        if dv.shape != kept.shape:
            raise InvariantViolationError(
                f"the events merge {kept.size} blocks, but carry {dv.size} velocity steps")
        if not all(np.all(np.isfinite(a)) for a in (times, self.post, self.x_left, dv)):
            raise InvariantViolationError(
                "an event carries a non-finite time, post velocity, left edge or velocity step")
        if times.size and not (times[0] >= 0.0 and times[-1] <= self.horizon
                               and np.all(times[1:] >= times[:-1])):
            raise InvariantViolationError(
                "event times must be nondecreasing inside [0, horizon]")
        last = _running_sums(kept * dv, self.block_off)
        _check_jumps(-last[kept > 0] / self.n, self.u0)

    @property
    def n(self) -> int:
        return self.cone.n

    @cached_property
    def _forest(self) -> _MergeForest:
        """The merge forest (``_merge_forest``), found on first read, so that
        every reader of the timeline finds it once between them."""
        return _merge_forest(self)

    @cached_property
    def jumps(self) -> np.ndarray:
        """The multiplier jumps of every event, flat and read-only, event
        k's on contacts lo+1..hi at jump_off[k]:jump_off[k + 1], built on
        first read as -cumsum(post - u_pre)[:-1] / n, bit for bit: each
        block's step repeated over its kept entries, the running sums of
        each event's own slice (``_running_sums``; one cumsum over the whole
        array would carry sums from one event into the next), then one
        negation and one division.  O(sum of merged range sizes).  Raises
        InvariantViolationError unless the events form a merge forest, whose
        contiguous blocks fill each event's slice, and every jump passes
        ``_check_jumps``."""
        self._forest  # raises unless the events form a merge forest
        jumps = _running_sums(np.repeat(self.dv, self.kept), self.jump_off)
        np.negative(jumps, out=jumps)
        jumps /= self.n
        _check_jumps(jumps, self.u0)
        jumps.flags.writeable = False
        return jumps

    @cached_property
    def events(self) -> tuple[MergeEvent, ...]:
        """The rows as ``MergeEvent`` views, built on first read; each
        ``jump_values`` is a view into ``jumps``."""
        blocks = [tuple(b) for b in self.blocks.tolist()]
        b, j = self.block_off.tolist(), self.jump_off.tolist()
        rows = zip(self.times.tolist(), b, b[1:], self.post.tolist(), self.x_left.tolist(),
                   j, j[1:])
        return tuple(MergeEvent(t, tuple(blocks[b0:b1]), v, x, self.jumps[j0:j1])
                     for t, b0, b1, v, x, j0, j1 in rows)

    def event_positions(self, event: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Positions x_left + two_r * j of particles lo + j of the events
        ``event`` at their instants: the one place the checks read them."""
        return self.x_left[event] + self.cone.two_r * j

    def iter_states(self, times):
        """The right-continuous states at the instants of ``times``
        (ascending, inside [0, horizon]): the one reader of the timeline at
        an instant.  The state at t reads the made blocks of the merge
        forest alive after the events at or before t (one ``searchsorted``):
        made before them and merged by none, each rigid from its maker's
        left edge (``_MergeForest.left_edge``).  The forest sorts the made
        blocks by range, so one mask over them gives the alive ones in
        order; then O(n) gathers and repeats, with no per-event step.
        Raises InvariantViolationError unless the events form a merge
        forest, whatever the query times.
        """
        times = [float(t) for t in times]
        if not all(0.0 <= t <= self.horizon * (1.0 + QUERY_HORIZON_RTOL) for t in times):
            raise InputDomainError("query times must lie in [0, horizon]")
        if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
            raise InputDomainError("query times must be ascending")
        f, n, two_r = self._forest, self.n, self.cone.two_r
        for t, count in zip(times, np.searchsorted(self.times, times, side="right").tolist()):
            alive = (f.made_at < count) & (f.merged_by >= count)
            starts = f.first[alive]
            sizes = f.last[alive] - starts + 1
            x = (np.repeat(f.left_edge(alive, t), sizes)
                 + two_r * (np.arange(n) - np.repeat(starts, sizes)))
            yield MicroState(t, x, np.repeat(f.made_v[alive], sizes), starts, self.cone)


@dataclass(frozen=True)
class _MergeForest:
    """The merge forest of a timeline (``_merge_forest``).

    Per made block, sorted by range (first, last): its ``first`` and
    ``last`` particle, ``made_at`` (-1 for an initial cluster, k for event
    k's range), ``merged_by`` (the event that merged it, or the event count
    if none did), and the data it moves with until then: the left edge
    ``made_x`` at time ``made_t`` and the velocity ``made_v``, the initial
    cluster's x0, time 0 and velocity or the event's left edge, time and
    post velocity.  Per row of ``blocks``: its ``maker`` and its ``event``.
    """

    maker: np.ndarray
    event: np.ndarray
    first: np.ndarray
    last: np.ndarray
    made_at: np.ndarray
    merged_by: np.ndarray
    made_x: np.ndarray
    made_v: np.ndarray
    made_t: np.ndarray

    def left_edge(self, blk, t):
        """The left edge at time t of each made block ``blk``: every reader's
        block position."""
        return self.made_x[blk] + self.made_v[blk] * (t - self.made_t[blk])


def _merge_forest(timeline: EventTimeline) -> _MergeForest:
    """The merge forest of a timeline: the maker of each merged block.

    The made blocks are the initial clusters, made at -1, then the events'
    ranges, event k's made at k.  Each event must merge two or more blocks,
    contiguous, each made by an earlier event or the initial partition and
    merged by no other event.  Then every event merges whole current blocks,
    and the blocks alive after any number of events partition 0..n-1.  And
    no two made blocks share a range: those that hold a particle form one
    chain, each merged by the next, whose ranges grow strictly; so a maker
    looked up by its range is the only one.  Raises
    InvariantViolationError, naming the first event that breaks the rule.

    The initial clusters are sorted by range already, so one sort of the
    events' ranges and one merge of the two sorted runs order the made
    blocks; one ``searchsorted`` finds the makers, and the earliest event
    that merges each block (``np.minimum.at``) finds a block merged twice.
    Returns the ``_MergeForest``.
    """
    tl, n = timeline, timeline.n
    count, starts = tl.times.size, tl.initial.starts
    a, b = tl.blocks.T.copy()
    event = np.repeat(np.arange(count), np.diff(tl.block_off))
    bad = (a < 0) | (b < a) | (b >= n)
    bad[1:] |= (event[1:] == event[:-1]) & (a[1:] != b[:-1] + 1)
    # a block out of range may share its key with another: its event is rejected anyway
    ev_key = tl.lo * n + tl.hi
    ev_order = np.argsort(ev_key)
    key = np.concatenate((starts * n + np.append(starts[1:], n) - 1, ev_key[ev_order]))
    runs = np.argsort(key, kind="stable")  # timsort merges the two sorted runs
    order, key = np.concatenate((np.arange(starts.size), ev_order + starts.size))[runs], key[runs]
    made_at = np.maximum(order - starts.size, -1)
    needle = a * n + b
    maker = np.minimum(np.searchsorted(key, needle), key.size - 1)
    merged_by = np.full(key.size, count)
    np.minimum.at(merged_by, maker, event)
    bad |= (key[maker] != needle) | (made_at[maker] >= event) | (merged_by[maker] != event)
    rejected = np.concatenate((event[bad], np.flatnonzero(np.diff(tl.block_off) < 2)))
    if rejected.size:
        k = int(rejected.min())
        raise InvariantViolationError(
            f"event at t={tl.times[k]} merges {tl.lo[k]}..{tl.hi[k]}, which is not a union "
            "of current blocks, two or more, each made before it and merged once")
    first, last = np.divmod(key, n)
    made_x = np.concatenate((tl.x0[starts], tl.x_left))[order]
    made_v = np.concatenate((tl.initial.velocities[starts], tl.post))[order]
    made_t = np.concatenate((np.zeros(starts.size), tl.times))[order]
    return _MergeForest(maker, event, first, last, made_at, merged_by, made_x, made_v, made_t)


class EventRecord:
    """What the checks read of each event, laid out flat, read off the
    timeline's columns through its merge forest (``_merge_forest``).

    Event k covers entries ``off[k]:off[k + 1]`` of the per-particle arrays,
    ``sizes[k]`` = hi - lo + 1 of them, one per particle ``index`` of its
    range lo..hi: ``u_pre`` (u just before the event), ``x`` (the event's
    positions, ``EventTimeline.event_positions``) and ``x_pre`` (their left
    limit: each merged block rigid from its own left edge).  ``inner`` marks
    the entries whose right neighbour is in the same range, one per contact
    lo+1..hi, so ``jumps`` aligns with its true entries.  ``lo``, ``hi``,
    ``times``, ``post`` and ``jumps`` are the timeline's columns.

    A block moves with the data of its maker until it is merged: the
    initial cluster's x0, velocity and time 0, or the event's left edge,
    post velocity and time.  So u_pre is the maker's velocity, and a
    position at t is x_left + v * (t - t_made) + two_r * (i - first),
    the left edge ``EventTimeline.iter_states`` reads too
    (``_MergeForest.left_edge``).  ``sides`` has one row (x, u of particle
    lo - 1, x, u of particle hi + 1) per event, NaN past an end of the
    line, and ``ends`` the first and the last particle at t = 0, after
    each event and at the horizon.  Each reads the latest
    block made by then with the given first or last particle, found by one
    sort of the made blocks by (first, made at) and one by (last, made at).

    So the record has two layouts: per particle of each range (``off``)
    and per contact lo+1..hi (``jump_off``), where ``jumps`` and ``lam``,
    the multipliers just after each event, sit.  ``diff`` and ``steps``
    map one layout to the other.  The contacts lo and hi + 1 of an event
    are block boundaries after it, which no event writes: lam is exactly 0
    there, and ``steps`` reads it so.  ``dots`` is np.dot(u_pre, u_pre)
    per event, whose bits the energy recursion reads.  lam and the dots
    keep one step per event, in event order: lam[lo + 1:hi + 1] += the
    event's jumps, then a copy of the slice, and the dot.  lam accumulates
    the jumps on purpose, and is not ``multipliers_at`` of the states
    after each event: the order-1 residual of ``verify_discrete_pde``
    checks these accumulated jumps against the velocities, which the
    velocity recursion of ``multipliers_at`` would satisfy by
    construction.  The two agree within rounding.  Every statistic
    of the checks is one vectorised pass over the flat arrays.  O(n + sum
    of merged range sizes) time and memory.  Raises
    InvariantViolationError unless the events form a merge forest.
    """

    def __init__(self, timeline: EventTimeline):
        self.timeline = tl = timeline
        n, two_r, count = tl.n, tl.cone.two_r, tl.times.size
        f = tl._forest

        def at(blk, i, t):
            return f.left_edge(blk, t) + two_r * (i - f.first[blk])

        def latest(made_edge, edge, when):
            """The latest block made by event ``when`` with made_edge == edge."""
            combined = made_edge * (count + 1) + f.made_at + 1
            order = np.argsort(combined)
            return order[np.searchsorted(combined[order], edge * (count + 1) + when + 1,
                                         side="right") - 1]

        self.lo, self.hi, self.times, self.post, self.jumps = \
            tl.lo, tl.hi, tl.times, tl.post, tl.jumps
        self.sizes = m = self.hi - self.lo + 1
        self.off = np.concatenate(([0], np.cumsum(m)))
        local = np.arange(self.off[-1]) - np.repeat(self.off[:-1], m)
        self.index = np.repeat(self.lo, m) + local
        self.inner = local < np.repeat(m - 1, m)
        self.x = tl.event_positions(np.repeat(np.arange(count), m), local)
        a, width = tl.blocks[:, 0], tl.blocks[:, 1] - tl.blocks[:, 0] + 1
        self.u_pre = np.repeat(f.made_v[f.maker], width)
        self.x_pre = (np.repeat(at(f.maker, a, tl.times[f.event]), width)
                      + two_r * (self.index - np.repeat(a, width)))

        # the ends at t = 0, after each event and at the horizon, then the sides
        k = np.arange(count)
        when = np.concatenate(([-1], k, [count - 1], k))
        by_first = latest(f.first, np.concatenate((np.zeros(count + 2, np.intp), self.hi + 1)),
                          when)
        by_last = latest(f.last, np.concatenate((np.full(count + 2, n - 1), self.lo - 1)), when)
        t_end = np.concatenate(([0.0], tl.times, [tl.horizon]))
        self.ends = np.column_stack((at(by_first[:count + 2], 0, t_end),
                                     at(by_last[:count + 2], n - 1, t_end)))
        left, right = by_last[count + 2:], by_first[count + 2:]
        has_l, has_r = self.lo > 0, self.hi + 1 < n
        self.sides = np.column_stack((
            np.where(has_l, at(left, self.lo - 1, self.times), np.nan),
            np.where(has_l, f.made_v[left], np.nan),
            np.where(has_r, at(right, self.hi + 1, self.times), np.nan),
            np.where(has_r, f.made_v[right], np.nan)))

        self.lam, lam = np.empty(self.jumps.size), np.zeros(n + 1)
        jump_off = tl.jump_off.tolist()
        for lo, hi, j0, j1 in zip(self.lo.tolist(), self.hi.tolist(), jump_off, jump_off[1:]):
            lam[lo + 1:hi + 1] += self.jumps[j0:j1]
            self.lam[j0:j1] = lam[lo + 1:hi + 1]
        off = self.off.tolist()
        self.dots = [float(np.dot(seg, seg))
                     for seg in (self.u_pre[o0:o1] for o0, o1 in zip(off, off[1:]))]

    def diff(self, v: np.ndarray) -> np.ndarray:
        """Per contact j of each event, v[j] - v[j - 1] of the per-particle
        values ``v``."""
        return (v[1:] - v[:-1])[self.inner[:-1]]

    def steps(self, c: np.ndarray) -> np.ndarray:
        """Per particle i of each range lo..hi, c[i + 1] - c[i] of the
        per-contact values ``c``, which are 0 at the contacts lo and hi + 1:
        minus the adjoint of ``diff``."""
        after = np.zeros(self.inner.size)
        after[self.inner] = c
        # each range's last entry holds 0, so the shift carries none across events
        return after - np.concatenate(([0.0], after[:-1]))


def worst_of(values, default: float = 0.0) -> float:
    """Largest of ``values``, NaN if any is NaN, ``default`` without values.

    Python's ``max`` and a running max(a, b) drop a NaN that does not come
    first, so a NaN residual would pass its check; this fold keeps it.
    """
    return float(np.max(np.asarray(values, dtype=float), initial=default))


def multipliers_at(state: MicroState, u0: np.ndarray) -> np.ndarray:
    """Multipliers lam[0..n] of a state: lam[i] = lam[i-1] - (u_i - u0_i)/n.

    lam[0] = 0 by construction; lam[n] vanishes because cluster means preserve
    the velocity sum, and a violation signals a corrupted state.  A NaN
    closure is a violation too: the test is written so that it fails.
    """
    u0 = np.asarray(u0, dtype=float)
    n = state.n
    lam = np.concatenate(([0.0], -np.cumsum(state.velocities - u0) / n))
    if not abs(lam[-1]) <= LAMBDA_CLOSURE_RTOL * _scale(u0):
        raise InvariantViolationError(
            f"lambda_n = {lam[-1]:.3e} does not vanish; state inconsistent with u0"
        )
    lam[-1] = 0.0
    return lam


def pressure_measure(timeline: EventTimeline) -> EventTimeline:
    """Atomic pressure: one atom per event, read off the timeline's columns
    (the time, the merged range lo..hi and the jumps on contacts lo+1..hi).

    The timeline's constructor has checked the jump at every block's last
    kept entry against the floor, and building ``EventTimeline.jumps``
    checks every jump.
    """
    return timeline


def verify_complementarity(state: MicroState, lam: np.ndarray) -> CheckReport:
    """Signorini check of lam[0..n]: lam >= 0 and lam_j * (gap_j - two_r) = 0
    within TOL_COMPLEMENTARITY."""
    inner = lam[1:-1]
    gaps = state.positions[1:] - state.positions[:-1]
    slack = gaps - state.cone.two_r
    compl = float(np.max(np.abs(inner * slack))) if inner.size else 0.0
    min_lam = float(lam.min())
    passed = compl <= TOL_COMPLEMENTARITY and min_lam >= -TOL_COMPLEMENTARITY
    return CheckReport("complementarity", passed, max(compl, -min_lam), TOL_COMPLEMENTARITY,
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


def verify_semigroup(timeline: EventTimeline, s: float, t: float) -> CheckReport:
    """Restarting from x(s), u(s) must reproduce x(t) and the cluster means,
    within TOL_SEMIGROUP: ``restart_check`` on the timeline's states at s
    and t (``EventTimeline.iter_states``).
    """
    if not (0.0 <= s < t <= timeline.horizon):
        raise InputDomainError("need 0 <= s < t <= horizon")
    return restart_check(*timeline.iter_states([s, t]))


def restart_check(st_s: MicroState, st_t: MicroState) -> CheckReport:
    """The restart identity between two states of one timeline, s < t.

    The restart projects x(s) + (t - s) u(s) over the clusters of x(s),
    which ``EventTimeline.iter_states`` builds rigid, so their spread
    after translation is rounding only; it must reproduce x(t), and its
    cluster means of u(s) over the clusters of x(t) must reproduce u(t).
    """
    s, t, cone = st_s.time, st_t.time, st_s.cone
    z, _ = projection_blocks(cone, st_s.positions + (t - s) * st_s.velocities, st_s.starts)
    expect = _cluster_state(t, z, st_s.velocities, st_t.starts, cone)
    pos_err = float(np.max(np.abs(expect.positions - st_t.positions)))
    vel_err = float(np.max(np.abs(expect.velocities - st_t.velocities)))
    err = worst_of((pos_err, vel_err))
    return CheckReport("semigroup", err <= TOL_SEMIGROUP, err, TOL_SEMIGROUP,
                       f"pos={pos_err:.3e}, vel={vel_err:.3e} at (s={s}, t={t})")


def verify_estimates(record: EventRecord) -> dict:
    """Energy dissipation and sup bounds along the whole timeline of an
    ``EventRecord``.

    Passes iff the rescaled kinetic energy rises at no event and ends at
    most at its initial value (both within ``energy_tolerance``), and all
    multiplier statistics are finite.  ``max_rise`` is the largest rise
    over one event (0 if none rises) and ``max_rise_event`` that event's
    index.  The sup statistics track every value the multipliers ever
    take: they change only at events, and only on the contacts of the
    merged range, where the record holds them.  So ``sup_n_lambda`` is n
    max|lam| and ``sup_n_lambda_jump`` n max|steps(lam)| over the record,
    in one vectorised pass.  A NaN anywhere fails the check.
    """
    rec, n = record, record.timeline.n
    u = rec.timeline.initial.velocities
    energy = [float(np.dot(u, u) / n)]
    tol = ENERGY_RTOL * (1.0 + energy[0])
    for post, size, dot in zip(rec.post.tolist(), rec.sizes.tolist(), rec.dots):
        energy.append(energy[-1] + (size * post ** 2 - dot) / n)
    rises = np.diff(energy)
    rise = worst_of(rises)
    sup_nlam = n * worst_of(np.abs(rec.lam))
    sup_njump = n * worst_of(np.abs(rec.steps(rec.lam)))
    sup_u = worst_of(np.abs(np.concatenate((u, rec.post))))
    bounded = np.isfinite(sup_u) and np.isfinite(sup_nlam) and np.isfinite(sup_njump)
    passed = rise <= tol and bounded and energy[-1] <= energy[0] + tol
    return {
        "passed": bool(passed),
        "energy_sequence": energy,
        "max_rise": rise,
        "max_rise_event": int(np.argmax(rises)) if rises.size else -1,
        "sup_velocity": sup_u,
        "sup_velocity_l2": float(np.sqrt(worst_of(energy))),
        "sup_n_lambda": sup_nlam,
        "sup_n_lambda_jump": sup_njump,
        "initial_energy": energy[0],
        "final_energy": energy[-1],
        "energy_tolerance": tol,
    }


def active_set_monotone(timeline: EventTimeline) -> bool:
    """Contacts never disappear: the events form a merge forest.

    Each event merges two or more contiguous blocks, each made before it
    and merged once (``_merge_forest``), so it coarsens the current
    partition.  Every reader of the timeline reads the same rule.  The
    timeline's constructor has already checked that the event times are
    nondecreasing.
    """
    try:
        timeline._forest
    except InvariantViolationError:
        return False
    return True
