"""Span tracing of congested_flow's public functions, from outside ``src/``.

``Tracer.install`` replaces each function listed in ``LAYERS`` by a wrapper
that records a span (name, start, end, parent) around every call.  A
function is replaced in its defining module and in every other
``congested_flow`` module that imported it by name, so ``from .x import f``
call sites are traced too; methods are replaced on their class.  Generator
functions get one span per ``next()``, so consumer code between items is
not charged to the generator.  Spans stay in memory until ``write``.

A layer's self time is the duration of its spans minus the parts covered by
their child spans; counts come from the values the wrapped functions
return.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict


def _count_evolve(counts, timeline):
    counts["dynamics.events"] += len(timeline.events)
    for e in timeline.events:
        lo, hi = e.index_range
        counts["dynamics.merged_particles"] += hi - lo + 1
        counts["dynamics.jump_floats"] += e.jump_values.size
        counts["dynamics.max_cascade_blocks"] = max(
            counts["dynamics.max_cascade_blocks"], len(e.merged_blocks))


def _count_projection(counts, result):
    x, _ = result
    counts["cone.project_calls"] += 1
    counts["cone.project_particles"] += x.size


def _count_fields(counts, trace):
    counts["fields.atom_floats"] += sum(dlam.size for _, dlam in trace.atoms)


def _count_weak_form(counts, form):
    counts["weakform.segments"] += len(form.segments)
    counts["weakform.segment_particles"] += sum(s.wb.size - 1 for s in form.segments)


def _tally(counter):
    """Counts each call (or each item of a generator)."""
    def count(counts, _result):
        counts[counter] += 1
    return count


# (module, function or Class.method, span name, counter of each result or item)
LAYERS = [
    ("cli", "load_config", "cli.load_config", None),
    # the commands' own work is building rows, formatting and writing artifacts
    ("cli", "cmd_simulate", "cli.export", None),
    ("cli", "cmd_converge", "cli.export", None),
    ("cli", "_write_csv", "cli.export", None),
    ("initdata", "quantile_sample", "initdata.quantile_sample", None),
    ("cone", "projection_blocks", "cone.project", _count_projection),
    ("dynamics", "evolve", "dynamics.evolve", _count_evolve),
    ("dynamics", "EventTimeline.iter_states", "dynamics.iter_states",
     _tally("dynamics.states")),
    ("dynamics", "multipliers_at", "dynamics.multipliers", None),
    ("dynamics", "pressure_measure", "dynamics.pressure_measure", None),
    ("dynamics", "verify_complementarity", "dynamics.checks", None),
    ("dynamics", "verify_oleinik", "dynamics.checks", None),
    ("dynamics", "verify_semigroup", "dynamics.checks", None),
    ("dynamics", "verify_estimates", "dynamics.checks", None),
    ("dynamics", "active_set_monotone", "dynamics.checks", None),
    ("fields", "build_fields", "fields.build", _count_fields),
    ("fields", "FieldTrace.iter_snapshots", "fields.snapshots", None),
    ("fields", "verify_discrete_pde", "fields.discrete_pde", None),
    ("fields", "oleinik_field_check", "fields.oleinik_field", None),
    ("fields", "convergence_study", "fields.convergence_study", None),
    ("piecewise", "PiecewiseField.distance", "piecewise.distance",
     _tally("piecewise.distance_calls")),
    ("weakform", "weak_form_of_trace", "weakform.residuals", _count_weak_form),
    ("weakform", "LagrangianWeakForm.spatial_extent", "weakform.residuals", None),
    ("weakform", "LagrangianWeakForm.family_residuals", "weakform.residuals", None),
    ("testfunctions", "TestFunction.__call__", "testfunctions.eval",
     _tally("testfunctions.evals")),
    ("testfunctions", "TestFunction.dt", "testfunctions.eval",
     _tally("testfunctions.evals")),
    ("testfunctions", "TestFunction.dx", "testfunctions.eval",
     _tally("testfunctions.evals")),
    ("eulerian", "snapshot", "eulerian.snapshot", None),
    ("eulerian", "pressure_pushforward", "eulerian.pushforward", None),
    ("eulerian", "wasserstein_time_modulus", "eulerian.wasserstein", None),
    ("eulerian", "complementarity_eulerian", "eulerian.checks", None),
    ("eulerian", "oleinik_eulerian", "eulerian.checks", None),
    ("eulerian", "weak_residual_suite", "eulerian.checks", None),
    ("verification", "run_battery", "verification.battery", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in LAYERS})
COUNT_NAMES = [
    "cone.project_calls", "cone.project_particles",
    "dynamics.events", "dynamics.max_cascade_blocks", "dynamics.merged_particles",
    "dynamics.jump_floats", "dynamics.states",
    "fields.atom_floats", "piecewise.distance_calls",
    "weakform.segments", "weakform.segment_particles", "testfunctions.evals",
]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one pass."""
        return len(self.start)

    def self_times(self, since: int = 0) -> tuple[dict[str, float], dict[str, float]]:
        """Per-name self and inclusive seconds of the spans recorded since ``since``."""
        covered = [0.0] * (len(self.start) - since)
        for idx in range(since, len(self.start)):
            p = self.parent[idx]
            if p >= since:
                covered[p - since] += self.end[idx] - self.start[idx]
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for idx in range(since, len(self.start)):
            name = self.names[self.span_name[idx]]
            dur = self.end[idx] - self.start[idx]
            own[name] += dur - covered[idx - since]
            # recursion into the same layer is counted once in the inclusive time
            p = self.parent[idx]
            if p < 0 or self.span_name[p] != self.span_name[idx]:
                total[name] += dur
        return own, total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": [list(row) for row in zip(
                           self.span_name, self.start, self.end, self.parent)]}, fh)

    # -- wrappers -------------------------------------------------------------

    def _wrap_function(self, fn, name: str, counter):
        name_id = self._name_id(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str, counter):
        name_id = self._name_id(name)
        counts = self.counts

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    if counter is not None:
                        counter(counts, item)
                    yield item
            finally:
                gen.close()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "congested_flow" or key.startswith("congested_flow.")]
        for module_name, attr, name, counter in LAYERS:
            module = sys.modules[f"congested_flow.{module_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, fn_name)
            wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) \
                else self._wrap_function
            traced = wrap(fn, name, counter)
            if owner_name:
                self._patch(owner, fn_name, traced)
                continue
            for other in modules:
                if getattr(other, fn_name, None) is fn:
                    self._patch(other, fn_name, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
