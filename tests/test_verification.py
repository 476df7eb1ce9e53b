"""The invariant battery: one state stream, one fold, and negative controls."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from congested_flow import dynamics, verification
from congested_flow.cli import load_config
from congested_flow.dynamics import CheckReport, EventTimeline, ReplayCursor, \
    active_set_monotone, evolve, max_slope_ratio, verify_estimates, verify_semigroup
from congested_flow.eulerian import wasserstein_time_modulus
from congested_flow.fields import DeltaPadding, FieldTrace, _run_single, build_fields, \
    oleinik_field_check, verify_discrete_pde
from congested_flow.random_data import random_admissible_datum
from congested_flow.verification import CHECK_NAMES, run_battery


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_contacts_trace(n, seed):
    x0, u0, cone = random_admissible_datum(n, np.random.default_rng(seed), contacts=True)
    return build_fields(evolve(x0, u0, cone, 1.0))


def failed_checks(reports):
    return [r.name for r in reports if not r.passed]


def record_replays(monkeypatch):
    """Patch EventTimeline.replay to record each call's query times, and the
    cursor's time at each ``state()`` call."""
    replays, states = [], []
    replay, state = EventTimeline.replay, ReplayCursor.state

    def recording_replay(self, times):
        times = [float(t) for t in times]
        replays.append(times)
        return replay(self, times)

    def recording_state(self):
        states.append(self.time)
        return state(self)

    monkeypatch.setattr(EventTimeline, "replay", recording_replay)
    monkeypatch.setattr(ReplayCursor, "state", recording_state)
    return replays, states


def test_battery_queries_each_sampled_instant_once(monkeypatch):
    trace = random_contacts_trace(100, 1)
    tl = trace.timeline
    ts = verification._sample_times(tl.horizon, tl.times)
    replays, _ = record_replays(monkeypatch)
    assert not failed_checks(run_battery(trace))
    queried = [t for times in replays for t in times]
    assert [queried.count(t) for t in ts.tolist()] == [1] * ts.size


def test_battery_finds_the_merge_forest_once(monkeypatch):
    # the monotone check finds the forest; the record reads it off the timeline
    calls = []
    merge_forest = dynamics._merge_forest

    def counting(timeline):
        calls.append(timeline)
        return merge_forest(timeline)

    monkeypatch.setattr(dynamics, "_merge_forest", counting)
    trace = random_contacts_trace(100, 1)
    assert not failed_checks(run_battery(trace))
    assert calls == [trace.timeline]


def test_battery_builds_one_state_per_query_instant(monkeypatch):
    # the record reads the events with no replay; one replay stops at the
    # sampled instants, the horizon, the ends of the 30 random pairs and the
    # distinct event instants e with s < e <= t of a Wasserstein pair (s, t),
    # where the velocity norm enters that pair's sup, and nowhere else
    trace = random_contacts_trace(300, 2)
    tl = trace.timeline
    rng = np.random.default_rng(0)  # the battery's default
    semigroup = [(s, t) for s, t in verification._time_pairs(rng, tl.horizon, 20)
                 if t - s >= verification.SEMIGROUP_MIN_SPAN]
    w2 = list(verification._time_pairs(rng, tl.horizon, 10))
    ends = {x for s, t in semigroup + w2 if s < t for x in (s, t)}
    norm = {e for s, t in w2 for e in tl.times.tolist() if s < e <= t}
    sampled = set(verification._sample_times(tl.horizon, tl.times).tolist())
    replays, states = record_replays(monkeypatch)
    assert not failed_checks(run_battery(trace))
    assert replays == [sorted(sampled | {tl.horizon} | ends | norm)]
    assert states == replays[0]
    assert len(tl.events) > 150 and len(norm - sampled - ends) > 30


def test_oleinik_field_check_reads_the_state_only(monkeypatch):
    trace = random_contacts_trace(100, 1)
    state = trace.timeline.state_at(0.5)

    def forbidden(*args, **kwargs):
        raise AssertionError("oleinik_field_check reads the state it is given")

    monkeypatch.setattr(EventTimeline, "iter_states", forbidden)
    monkeypatch.setattr(FieldTrace, "iter_snapshots", forbidden)
    rep = oleinik_field_check(trace, state)
    assert rep["passed"] and 0.0 <= rep["max_ratio"] < 1.0


def nan_on_second_call(monkeypatch, name):
    """Make verification's ``name`` report a failing NaN on its second call."""
    check = getattr(verification, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        rep = check(*args, **kwargs)
        if len(calls) == 2:
            return CheckReport(rep.name, False, math.nan, rep.tolerance, "NaN run")
        return rep

    monkeypatch.setattr(verification, name, patched)
    return calls


def test_failing_nan_run_fails_its_check(monkeypatch):
    # a fold that keeps the verdict of the largest value never picks a NaN run
    trace = random_contacts_trace(100, 1)
    calls = nan_on_second_call(monkeypatch, "restart_check")
    reports = run_battery(trace)
    assert len(calls) > 2
    assert failed_checks(reports) == ["semigroup"]
    assert math.isnan(reports[CHECK_NAMES.index("semigroup")].value)


def test_nan_slope_fails_the_one_oleinik_stream(monkeypatch):
    # the three slope reports share one stream: a NaN ratio at the horizon,
    # where every pair is evaluated, fails all three with the value NaN
    trace = random_contacts_trace(100, 1)
    monkeypatch.setattr(verification, "max_slope_ratio", lambda *args: math.nan)
    reports = run_battery(trace)
    slopes = ["oleinik", "oleinik_field", "eulerian_oleinik"]
    assert failed_checks(reports) == slopes
    assert all(math.isnan(reports[CHECK_NAMES.index(name)].value) for name in slopes)


def test_stretched_gap_fails_the_exclusion_relations(monkeypatch):
    # cluster positions are built rigid, so the fault goes below the
    # representation: one gap of the widest event, at its largest jump
    trace = random_contacts_trace(200, 5)
    tl = trace.timeline
    w = max(range(len(tl.events)), key=lambda k: tl.hi[k] - tl.lo[k])
    widest = tl.events[w]
    assert widest.index_range == (68, 137)
    k = int(np.argmax(widest.jump_values))
    rigid = EventTimeline.event_positions

    def stretched(self, event, j):
        x = rigid(self, event, j)
        x[(event == w) & (j > k)] += 1e-3 * self.cone.two_r
        return x

    assert verify_discrete_pde(trace)["passed"]
    monkeypatch.setattr(EventTimeline, "event_positions", stretched)
    pde = verify_discrete_pde(trace)
    # slack n * 1e-3 * two_r = 1e-3 against the largest jump 4.84e-3
    expected = 1e-3 * float(widest.jump_values[k])
    assert pde["multiplier_exclusion_max"] == pytest.approx(expected, rel=1e-6)
    assert pde["atom_exclusion_max"] == pytest.approx(expected, rel=1e-6)
    assert pde["order1_max_residual"] <= 1e-12 and pde["order2_max_residual"] <= 1e-12
    # the battery reads the same event positions: the stretched contact cell
    # falls below density 1 under its pressure atom
    reports = run_battery(trace)
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert failed_checks(reports) == ["discrete_pde", "eulerian_reconstruction",
                                      "eulerian_complementarity"]
    for name in ("eulerian_reconstruction", "eulerian_complementarity"):
        value = reports[CHECK_NAMES.index(name)].value
        assert value == pytest.approx(1.0 - 1.0 / (1.0 + 1e-3), rel=1e-6)


def test_slightly_negative_multiplier_fails_complementarity(monkeypatch):
    # min lambda = -1e-11 on the tightest gap keeps lam * slack far below
    # TOL_COMPLEMENTARITY; only the sign bound TOL_MIN_LAMBDA catches it
    trace = random_contacts_trace(100, 1)
    exact = verification.multipliers_at

    def negative(state, u0):
        lam = exact(state, u0)
        lam[int(np.argmin(np.diff(state.positions))) + 1] = -1e-11
        return lam

    monkeypatch.setattr(verification, "multipliers_at", negative)
    reports = run_battery(trace)
    assert failed_checks(reports) == ["complementarity"]
    assert reports[0].value == pytest.approx(1e-11, rel=1e-6)


def test_momentum_fault_fails_its_checks_instead_of_raising():
    # a shifted post_velocity breaks sum u = sum u0, so multipliers_at raises
    # on the lam_n closure; the battery still reports every check
    trace = random_contacts_trace(200, 3)
    tl = trace.timeline
    assert len(tl.events) == 121
    last_sample = verification._sample_times(tl.horizon, tl.times)[-1]

    def covered_later(k):
        lo, hi = tl.events[k].index_range
        return any(e.index_range[0] <= lo and hi <= e.index_range[1]
                   for e in tl.events[k + 1:])

    k = max((k for k, e in enumerate(tl.events)
             if e.time < last_sample and not covered_later(k)),
            key=lambda k: tl.events[k].index_range[1] - tl.events[k].index_range[0])
    lo, hi = tl.events[k].index_range
    post = tl.post.copy()
    post[k] += 1e-3
    reports = run_battery(build_fields(dataclasses.replace(tl, post=post)))
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert failed_checks(reports) == ["complementarity", "momentum_conservation", "semigroup",
                                      "discrete_pde", "weak_residuals"]
    # the momentum error is the shift on the merged range; complementarity
    # reports the closure |lam_n|, that error over n
    assert reports[2].value == pytest.approx(1e-3 * (hi + 1 - lo), rel=1e-9)
    assert reports[0].value == pytest.approx(reports[2].value / tl.n, rel=1e-12)


def test_opened_cluster_gap_fails_the_contact_cells(monkeypatch):
    # once the two blocks have merged, every state moves particles 40.. right
    # by 5e-10: a gap inside the one cluster opens, so its cell falls below
    # density 1.  A contact rule that re-reads the gaps drops that cell, so
    # only the partition sees it.  (A shift of 1e-9 would also fail the
    # restart identity, whose tolerance it equals, by rounding.)  States are
    # built at query instants only; the pressure atom is checked on the
    # event's own positions, which the fault does not reach.
    cfg = load_config(str(CONFIGS / "two_block.json"))
    trace = _run_single(cfg["_datum"], 64, cfg["_horizon"], DeltaPadding(cfg["_delta"]))
    assert [e.index_range for e in trace.timeline.events] == [(0, 63)]
    rigid = ReplayCursor.state

    def opened(self):
        st = rigid(self)
        if self.count == 0:
            return st
        x = st.positions.copy()
        x[40:] += 5e-10
        return dataclasses.replace(st, positions=x)

    assert not failed_checks(run_battery(trace, np.random.default_rng(cfg["_seed"])))
    monkeypatch.setattr(ReplayCursor, "state", opened)
    reports = run_battery(trace, np.random.default_rng(cfg["_seed"]))
    assert failed_checks(reports) == ["complementarity", "eulerian_reconstruction"]
    # density two_r / (two_r + 5e-10) with two_r = 1/64
    recon = reports[CHECK_NAMES.index("eulerian_reconstruction")]
    assert recon.value == pytest.approx(64 * 5e-10, rel=1e-6)


def test_raised_post_velocity_fails_energy_dissipation():
    # a real-data control: the event with the most jumps (70 particles in 2
    # blocks) leaves 1.0 faster than its mean, so its energy step is
    # positive.  A shift of 1e-3 would not raise the energy
    trace = random_contacts_trace(200, 5)
    tl = trace.timeline
    k = max(range(len(tl.events)), key=lambda k: tl.events[k].jump_values.size)
    e = tl.events[k]
    assert (k, e.index_range, len(e.merged_blocks)) == (116, (68, 137), 2)
    post = tl.post.copy()
    post[k] += 1.0
    bad = dataclasses.replace(tl, post=post)
    energy = verify_estimates(bad)["energy_sequence"]
    assert energy[k + 1] > energy[k]
    reports = run_battery(build_fields(bad))
    assert failed_checks(reports) == [
        "complementarity", "oleinik", "momentum_conservation", "energy_dissipation",
        "semigroup", "discrete_pde", "oleinik_field", "eulerian_oleinik", "weak_residuals"]


def test_rejected_replay_is_reported_not_raised():
    # start the first event's first multi-particle block one particle later:
    # the merged range no longer covers whole blocks, so the replay rejects it
    x0, u0, cone = random_admissible_datum(50, np.random.default_rng(12), contacts=True)
    tl = evolve(x0, u0, cone, 3.0)
    k = next(k for k, e in enumerate(tl.events)
             if e.merged_blocks[0][1] > e.merged_blocks[0][0])
    blocks = tl.blocks.copy()
    blocks[tl.block_off[k], 0] += 1
    broken = dataclasses.replace(tl, blocks=blocks, jumps=np.delete(tl.jumps, tl.jump_off[k]))
    assert not active_set_monotone(broken)
    assert_rejected(run_battery(build_fields(broken)), len(tl.events))


def assert_rejected(reports, count):
    """The battery's report of a rejected timeline of ``count`` events."""
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert failed_checks(reports) == list(CHECK_NAMES)
    for r in reports:
        if r.name == "active_set_monotone":
            assert (r.value, r.tolerance) == (float(count), 0.0)
        else:
            assert math.isnan(r.value) and math.isnan(r.tolerance)
            assert r.detail == "not evaluated: the events do not form a merge forest"


@pytest.mark.parametrize("fault", ["misstated_blocks", "phantom_event"])
def test_misstated_or_phantom_event_is_rejected(fault):
    # the replay reads only lo and hi, so both timelines run through it; the
    # merge forest rejects them: a merged block that no earlier event made,
    # and an "event" that merges one current block, a merge that never happened
    x0, u0, cone = random_admissible_datum(50, np.random.default_rng(12), contacts=True)
    tl = evolve(x0, u0, cone, 3.0)
    st = tl.state_at(tl.horizon)
    if fault == "misstated_blocks":
        blocks = tl.blocks.copy()
        rows = slice(tl.block_off[1], tl.block_off[2])
        assert blocks[rows].tolist() == [[33, 34], [35, 36]]
        blocks[rows] = [[33, 35], [36, 36]]
        bad = dataclasses.replace(tl, blocks=blocks)
    else:
        assert st.starts[-2:].tolist() == [8, 25]  # the current block 8..24
        bad = dataclasses.replace(
            tl, times=np.append(tl.times, tl.horizon), blocks=np.vstack((tl.blocks, [8, 24])),
            block_off=np.append(tl.block_off, tl.blocks.shape[0] + 1),
            post=np.append(tl.post, st.velocities[8]),
            x_left=np.append(tl.x_left, st.positions[8]), jumps=np.append(tl.jumps, np.zeros(16)))
    again = bad.state_at(bad.horizon)
    assert again.starts.tolist() == st.starts.tolist()
    assert not active_set_monotone(bad)
    assert_rejected(run_battery(build_fields(bad)), bad.times.size)


def test_drifting_block_fails_the_wasserstein_modulus(monkeypatch):
    # a real-data control for wasserstein_modulus: every state moves the
    # last block at the horizon (particles 198..199) right by 2 t, with its
    # velocities unchanged.  Nothing lies to its right, so no gap closes;
    # the W2 modulus of a pair outgrows (t - s) sup ||u||, and the restart
    # identity misses the drift
    trace = random_contacts_trace(200, 5)
    a = int(trace.timeline.state_at(1.0).starts[-1])
    assert a == 198
    rigid = ReplayCursor.state

    def drifted(self):
        st = rigid(self)
        x = st.positions.copy()
        x[a:] += 2.0 * self.time
        return dataclasses.replace(st, positions=x)

    assert not failed_checks(run_battery(trace))
    monkeypatch.setattr(ReplayCursor, "state", drifted)
    reports = run_battery(trace)
    assert failed_checks(reports) == ["semigroup", "wasserstein_modulus"]


@pytest.mark.parametrize("k", [0, -1], ids=["first_event", "last_event"])
def test_nan_jump_below_the_constructor_fails_its_checks(k):
    # the constructor rejects a NaN jump, so it goes in after construction;
    # every residual fold then lets it through to a failing NaN value
    x0, u0, cone = random_admissible_datum(60, np.random.default_rng(3), contacts=True)
    tl = evolve(x0, u0, cone, 3.0)
    jumps = tl.jumps.copy()
    trace = build_fields(dataclasses.replace(tl, jumps=jumps))
    assert not failed_checks(run_battery(trace))
    jumps[tl.jump_off[:-1][k]] = np.nan  # the event's first jump
    reports = run_battery(trace)
    assert failed_checks(reports) == ["energy_dissipation", "discrete_pde", "weak_residuals"]
    for name in ("discrete_pde", "weak_residuals"):
        assert math.isnan(reports[CHECK_NAMES.index(name)].value)


def oleinik_reference(trace):
    """Brute force: every pair at both limits of every distinct event instant
    at t > 0 and at the horizon, from full states; (plain, padded) maxima."""
    tl = trace.timeline
    pad = trace.padding.pad
    u_before = tl.initial.velocities
    plain, padded = [], []

    def add(t, x, u):
        plain.append(max_slope_ratio(t, x, u))
        padded.append(max_slope_ratio(t, pad(x, tl.cone.two_r), np.concatenate(([u[0]], u))))

    for st in tl.states_at(sorted(set(tl.times.tolist()))):
        if st.time > 0.0:
            add(st.time, st.positions, u_before)
            add(st.time, st.positions, st.velocities)
        u_before = st.velocities
    st = tl.state_at(tl.horizon)
    add(tl.horizon, st.positions, st.velocities)
    return max(plain), max(padded)


@pytest.mark.parametrize("seed", range(20))
def test_oleinik_stream_equals_the_brute_force_reference(seed):
    n = (50, 120, 300, 500)[seed % 4]
    horizon = (1.0, 3.0)[seed % 2]
    x0, u0, cone = random_admissible_datum(n, np.random.default_rng(seed), contacts=True)
    trace = build_fields(evolve(x0, u0, cone, horizon))
    plain, padded = oleinik_reference(trace)
    reports = {r.name: r for r in run_battery(trace, np.random.default_rng(seed))}
    assert reports["oleinik"].value == plain
    assert reports["eulerian_oleinik"].value == plain
    assert reports["oleinik_field"].value == padded
    # the sampled instants never see more than the exact sup
    ts = verification._sample_times(horizon, trace.timeline.times)
    sampled = max(max_slope_ratio(st.time, st.positions, st.velocities)
                  for st in trace.timeline.iter_states(ts))
    assert sampled <= plain < 1.0


@pytest.mark.parametrize("seed", range(6))
def test_stream_pairs_equal_the_per_pair_checks(monkeypatch, seed):
    # the 20 semigroup and 10 Wasserstein pairs, served by the battery's one
    # replay, give the bits of the per-pair functions that replay on their own
    x0, u0, cone = random_admissible_datum(200, np.random.default_rng(seed), contacts=True)
    trace = build_fields(evolve(x0, u0, cone, 1.0 + seed % 3))
    tl = trace.timeline
    seen = {"semigroup": [], "w2": []}
    restart, w2 = verification.restart_check, verification.w2_report

    def restart_recorder(st_s, st_t):
        rep = restart(st_s, st_t)
        seen["semigroup"].append(((st_s.time, st_t.time), rep.value))
        return rep

    def w2_recorder(h, x_s, x_t, s, t, sup_u):
        rep = w2(h, x_s, x_t, s, t, sup_u)
        seen["w2"].append(((s, t), (rep["modulus"], rep["bound"], rep["sup_velocity_l2"])))
        return rep

    monkeypatch.setattr(verification, "restart_check", restart_recorder)
    monkeypatch.setattr(verification, "w2_report", w2_recorder)
    assert not failed_checks(run_battery(trace, np.random.default_rng(seed)))
    rng = np.random.default_rng(seed)
    pairs = list(verification._time_pairs(rng, tl.horizon, 20))
    want = sorted(((s, t), verify_semigroup(tl, s, t).value) for s, t in pairs
                  if t - s >= verification.SEMIGROUP_MIN_SPAN)
    assert sorted(seen["semigroup"]) == want and len(want) == 20
    want = []
    for s, t in verification._time_pairs(rng, tl.horizon, 10):
        rep = wasserstein_time_modulus(trace, s, t)
        want.append(((s, t), (rep["modulus"], rep["bound"], rep["sup_velocity_l2"])))
    assert sorted(seen["w2"]) == sorted(want) and len(want) == 10


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_seeds_pass_every_check(tmp_path):
    # the exact suprema exceed the sampled ones, so no benchmark simulate may
    # come near a bound: random_contacts at seeds 1-20, the others at 1-3
    workloads = load_workloads()
    root = Path(__file__).resolve().parent.parent
    runs = [("random_contacts", seed) for seed in range(1, 21)]
    runs += [(name, seed) for name in ("two_block_large", "smooth_cascade") for seed in (1, 2, 3)]
    traces = {}
    for name, seed in runs:
        path = workloads.write_config(root, name, seed, tmp_path / f"{name}-{seed}.json")
        cfg = load_config(str(path))
        key = (name, seed) if name == "random_contacts" else name
        if key not in traces:  # the fixed-datum workloads differ only in their seed
            traces[key] = _run_single(cfg["_datum"], cfg["n"], cfg["_horizon"],
                                      DeltaPadding(cfg["_delta"]))
        reports = run_battery(traces[key], np.random.default_rng(cfg["_seed"]))
        assert not failed_checks(reports), (name, seed)
