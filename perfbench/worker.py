"""One benchmark process: times the real CLI in-process and checks its outputs.

Two modes, each run as a fresh interpreter by ``run.py``:

``setup CONFIG``
    Prints the seconds from before ``import congested_flow`` to after
    ``cli.load_config`` (datum build and validation).  Nothing else is
    imported first, so the figure includes numpy's import.

``measure CONFIG OUT_DIR SECONDS TRACE RESULT``
    With TRACE 0, alternates ``simulate`` and ``converge`` until SECONDS
    have passed, one command after another from a single client.  With
    TRACE 1, runs a warm-up pair, then alternates untraced and traced pairs
    (at least two each) until SECONDS have passed, and writes the spans next
    to RESULT.  Every output check runs outside the timed region.  Writes a
    JSON summary to RESULT.
"""

import sys
import time


def _setup(config: str) -> None:
    t0 = time.perf_counter()
    import congested_flow  # noqa: F401
    from congested_flow import cli

    cli.load_config(config)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__" and sys.argv[1] == "setup":
    _setup(sys.argv[2])
    sys.exit(0)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from congested_flow import cli  # noqa: E402
from congested_flow.dynamics import trajectory_at  # noqa: E402
from congested_flow.initdata import quantile_sample  # noqa: E402

from tracer import COUNT_NAMES, SPAN_NAMES, Tracer  # noqa: E402

# event route (evolve, exported to states.csv) against projection route
# (trajectory_at); both are exact up to rounding
POSITION_RTOL = 1e-9


class Failure(Exception):
    """An output check failed."""


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _output_counts(out: Path) -> dict[str, int]:
    """Data rows of every CSV and bytes of every file a command wrote."""
    rows = 0
    size = 0
    for p in out.iterdir():
        data = p.read_bytes()
        size += len(data)
        if p.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return {"cli.rows_written": rows, "cli.bytes_written": size}


class Session:
    """The commands of one workload and the checks on what they write."""

    def __init__(self, config: str, out: Path):
        self.config = config
        self.out = {cmd: out / cmd for cmd in ("simulate", "converge")}
        self.cfg = cli.load_config(config)
        self.attempted = 0
        self.failed_attempts: set[int] = set()
        self.errors: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}
        datum = self.cfg["_datum"]
        # the sampled datum must be admissible at every n the workload uses
        for n in [self.cfg["n"]] + self.cfg["n_list"]:
            quantile_sample(datum, n)

    def run(self, cmd: str) -> float:
        """Run one command; returns its wall time and checks its outputs."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code = cli.main([cmd, "--config", self.config, "--out", str(self.out[cmd]),
                             "--threads", "1"])
        except Exception as exc:  # a crashing command is a failed attempt
            elapsed = time.perf_counter() - t0
            self.fail(f"{cmd}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            self._check(cmd, code)
        except Failure as exc:
            self.fail(f"{cmd}: {exc}")
        return elapsed

    def fail(self, msg: str) -> None:
        """Mark the latest command failed."""
        self.failed_attempts.add(self.attempted)
        self.errors.append(msg)

    def _check(self, cmd: str, code: int) -> None:
        if code != 0:
            raise Failure(f"exit code {code}")
        out = self.out[cmd]
        digests = _digests(out)
        if cmd not in self.reference:
            if cmd == "simulate":
                self._check_simulate(out)
            else:
                self._check_converge(out)
            self.reference[cmd] = digests
        elif digests != self.reference[cmd]:
            changed = sorted(k for k in digests if digests[k] != self.reference[cmd].get(k))
            raise Failure(f"artifacts differ from the first run: {changed}")

    def _check_simulate(self, out: Path) -> None:
        report = json.loads((out / "verification.json").read_text())
        if not report["all_passed"]["passed"]:
            failed = [k for k, v in report.items() if not v["passed"]]
            raise Failure(f"verification.json: failed checks {failed}")
        n = self.cfg["n"]
        x0, u0, cone = quantile_sample(self.cfg["_datum"], n)
        table = np.loadtxt(out / "states.csv", delimiter=",", skiprows=1, ndmin=2)
        times = self.cfg["_sample_times"]
        if table.shape != (n * len(times), 4):
            raise Failure(f"states.csv has shape {table.shape}")
        for k, t in enumerate(times):
            rows = table[k * n:(k + 1) * n]
            ref = trajectory_at(x0, u0, cone, t).positions
            dev = float(np.max(np.abs(rows[:, 2] - ref)))
            scale = 1.0 + float(np.max(np.abs(ref)))
            if rows[0, 0] != t or dev > POSITION_RTOL * scale:
                raise Failure(f"states.csv at t={t}: position deviation {dev:.3e} "
                              f"from trajectory_at exceeds {POSITION_RTOL:g} x {scale:.3g}")

    def _check_converge(self, out: Path) -> None:
        lines = (out / "convergence.csv").read_text().splitlines()
        expect = len(set(self.cfg["n_list"])) * len(self.cfg["_sample_times"])
        if len(lines) - 1 != expect:
            raise Failure(f"convergence.csv has {len(lines) - 1} rows, expected {expect}")
        json.loads((out / "convergence_summary.json").read_text())

    def check_simulate_counts(self, counts: dict[str, int]) -> None:
        """Counts traced during one simulate must match its events.csv."""
        out = self.out["simulate"]
        lines = (out / "events.csv").read_text().splitlines()[1:]
        merged = 0
        for line in lines:
            _, lo, hi, _ = line.split(",")
            merged += int(hi) - int(lo) + 1
        expect = {"dynamics.events": len(lines), "dynamics.merged_particles": merged,
                  "dynamics.jump_floats": merged - len(lines),
                  # one dense length-(n+1) jump profile per event
                  "fields.atom_floats": len(lines) * (self.cfg["n"] + 1)}
        for key, value in expect.items():
            if counts.get(key, 0) != value:
                self.fail(f"count {key}: traced {counts.get(key, 0)}, events.csv {value}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(session: Session, seconds: float) -> dict:
    times = {"simulate": [], "converge": []}
    t_end = time.perf_counter() + seconds
    while True:
        for cmd in ("simulate", "converge"):
            times[cmd].append(session.run(cmd))
        if time.perf_counter() >= t_end:
            break
    return {"simulate_s": times["simulate"], "converge_s": times["converge"]}


def _traced_pass(session: Session, tracer: Tracer) -> tuple[float, dict, dict]:
    since = tracer.mark()
    tracer.counts.clear()
    wall = session.run("simulate")
    session.check_simulate_counts(tracer.counts)
    wall += session.run("converge")
    counts = {k: tracer.counts.get(k, 0) for k in COUNT_NAMES}
    for cmd in ("simulate", "converge"):
        for key, value in _output_counts(session.out[cmd]).items():
            counts[key] = counts.get(key, 0) + value
    own, total = tracer.self_times(since)
    layer = {f"{name}_s": own.get(name, 0.0) for name in SPAN_NAMES}
    layer["verification.battery_total_s"] = total.get("verification.battery", 0.0)
    return wall, layer, counts


def _trace(session: Session, seconds: float, spans_path: Path) -> dict:
    t_end = time.perf_counter() + seconds
    # warm-up pair: its artifacts are the reference every later run must match
    session.run("simulate")
    session.run("converge")
    tracer = Tracer()
    untraced, walls, layers, counts = [], [], [], []
    while len(walls) < 2 or time.perf_counter() < t_end:
        untraced.append(session.run("simulate") + session.run("converge"))
        tracer.install()
        try:
            wall, layer, count = _traced_pass(session, tracer)
        finally:
            tracer.uninstall()
        walls.append(wall)
        layers.append(layer)
        counts.append(count)
    tracer.write(spans_path)

    for later in counts[1:]:
        if later != counts[0]:
            diff = sorted(k for k in later if later[k] != counts[0][k])
            session.fail(f"counts differ between traced passes: {diff}")
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics.update(counts[0])
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    metrics["trace.spans"] = len(tracer.start) // len(walls)
    return metrics


def main(argv) -> int:
    config, out, seconds, trace, result = argv
    session = Session(config, Path(out))
    if trace == "1":
        measured = _trace(session, float(seconds), Path(result).with_suffix(".spans.json"))
    else:
        measured = _measure(session, float(seconds))
    Path(result).write_text(json.dumps({
        "attempted": session.attempted,
        "failed": len(session.failed_attempts),
        "errors": session.errors,
        "peak_rss_mb": _peak_rss_mb(),
        "measured": measured,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
