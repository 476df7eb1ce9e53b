"""The invariant battery: one state stream, one fold, and negative controls."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from congested_flow import verification
from congested_flow.cli import load_config
from congested_flow.dynamics import CheckReport, EventTimeline, MergeEvent, ReplayCursor, \
    active_set_monotone, evolve
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


def test_battery_queries_each_sampled_instant_once(monkeypatch):
    trace = random_contacts_trace(100, 1)
    tl = trace.timeline
    ts = verification._sample_times(tl.horizon, tl.event_times())
    queried = []
    stream = EventTimeline.iter_states

    def recorder(self, times):
        times = [float(t) for t in times]
        queried.extend(times)
        return stream(self, times)

    monkeypatch.setattr(EventTimeline, "iter_states", recorder)
    assert not failed_checks(run_battery(trace))
    assert [queried.count(t) for t in ts.tolist()] == [1] * ts.size


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


@pytest.mark.parametrize("name, check", [
    ("verify_oleinik", "oleinik"),
    ("verify_semigroup", "semigroup"),
])
def test_failing_nan_run_fails_its_check(monkeypatch, name, check):
    # a fold that keeps the verdict of the largest value never picks a NaN run
    trace = random_contacts_trace(100, 1)
    calls = nan_on_second_call(monkeypatch, name)
    reports = run_battery(trace)
    assert len(calls) > 2
    assert failed_checks(reports) == [check]


def test_stretched_gap_fails_the_exclusion_relations(monkeypatch):
    # cluster positions are built rigid, so the fault goes below the
    # representation: one gap of the widest event, at its largest jump
    trace = random_contacts_trace(200, 5)
    tl = trace.timeline
    widest = max(tl.events, key=lambda e: e.index_range[1] - e.index_range[0])
    assert widest.index_range == (68, 137)
    k = int(np.argmax(widest.jump_values))
    rigid = MergeEvent.positions

    def stretched(self, two_r):
        x = rigid(self, two_r)
        if self is widest:
            x[k + 1:] += 1e-3 * two_r
        return x

    assert verify_discrete_pde(trace)["passed"]
    monkeypatch.setattr(MergeEvent, "positions", stretched)
    pde = verify_discrete_pde(trace)
    # slack n * 1e-3 * two_r = 1e-3 against the largest jump 4.84e-3
    expected = 1e-3 * float(widest.jump_values[k])
    assert pde["multiplier_exclusion_max"] == pytest.approx(expected, rel=1e-6)
    assert pde["atom_exclusion_max"] == pytest.approx(expected, rel=1e-6)
    assert pde["order1_max_residual"] <= 1e-12 and pde["order2_max_residual"] <= 1e-12
    reports = run_battery(trace)
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert failed_checks(reports) == ["discrete_pde"]


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
    last_sample = verification._sample_times(tl.horizon, tl.event_times())[-1]

    def covered_later(k):
        lo, hi = tl.events[k].index_range
        return any(e.index_range[0] <= lo and hi <= e.index_range[1]
                   for e in tl.events[k + 1:])

    k = max((k for k, e in enumerate(tl.events)
             if e.time < last_sample and not covered_later(k)),
            key=lambda k: tl.events[k].index_range[1] - tl.events[k].index_range[0])
    lo, hi = tl.events[k].index_range
    events = list(tl.events)
    events[k] = dataclasses.replace(events[k], post_velocity=events[k].post_velocity + 1e-3)
    reports = run_battery(build_fields(dataclasses.replace(tl, events=tuple(events))))
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
    # restart identity, whose tolerance it equals, by rounding.)
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
    assert failed_checks(reports) == ["complementarity", "eulerian_reconstruction",
                                      "eulerian_complementarity"]
    # density two_r / (two_r + 5e-10) with two_r = 1/64
    recon = reports[CHECK_NAMES.index("eulerian_reconstruction")]
    assert recon.value == pytest.approx(64 * 5e-10, rel=1e-6)


def test_rejected_replay_is_reported_not_raised():
    # start the first event's first multi-particle block one particle later:
    # the merged range no longer covers whole blocks, so the replay rejects it
    x0, u0, cone = random_admissible_datum(50, np.random.default_rng(12), contacts=True)
    tl = evolve(x0, u0, cone, 3.0)
    k = next(k for k, e in enumerate(tl.events)
             if e.merged_blocks[0][1] > e.merged_blocks[0][0])
    (lo, hi), *rest = tl.events[k].merged_blocks
    events = list(tl.events)
    events[k] = dataclasses.replace(events[k], merged_blocks=((lo + 1, hi), *rest),
                                    jump_values=events[k].jump_values[1:])
    broken = dataclasses.replace(tl, events=tuple(events))
    assert not active_set_monotone(broken)
    reports = run_battery(build_fields(broken))
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert failed_checks(reports) == list(CHECK_NAMES)
    for r in reports:
        if r.name == "active_set_monotone":
            assert (r.value, r.tolerance) == (float(len(tl.events)), 0.0)
        else:
            assert math.isnan(r.value) and math.isnan(r.tolerance)
            assert r.detail == "not evaluated: the replay rejects an event"
