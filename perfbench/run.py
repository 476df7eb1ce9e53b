"""End-to-end benchmark of the congested-flow CLI (``simulate`` and ``converge``).

Run from the repository root:

    python3 perfbench/run.py --workload random_contacts --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` and described in ``BENCHMARK.json``.
A run writes the workload's config from the seed, times set-up in several
fresh processes, then starts one measuring process (``worker.py``) that runs
the real CLI in-process, closed loop from a single client, one command after
another.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` the per-layer self times and counts of a traced run.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The package is imported from ``src/``, so
nothing is built; a checkout without ``src/congested_flow`` is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 11
# every process must end within the benchmark's 180 s limit
DEADLINE_S = 170.0

# metric names and units come from the benchmark's declaration
SPEC = ROOT / "BENCHMARK.json"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CONGESTED_FLOW_THREADS", None)
    # the same dict and set layout in every process, so runs differ by less
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc


def _setup_seconds(config: Path, deadline: float) -> float:
    """Median over fresh processes of import congested_flow + cli.load_config."""
    samples = [float(_run_child(["setup", str(config)], deadline).stdout.split()[-1])
               for _ in range(SETUP_REPEATS)]
    return statistics.median(samples)


def _run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: returns the result object whose JSON is the last output line."""
    deadline = time.monotonic() + DEADLINE_S
    work = RUNS / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = write_config(ROOT, workload, seed, work / "config.json")
    result_path = work / "result.json"
    setup = None if trace else _setup_seconds(config, deadline)
    _run_child(["measure", str(config), str(work / "out"), str(seconds), str(trace),
                str(result_path)], deadline)
    result = json.loads(result_path.read_text())
    shutil.rmtree(work / "out", ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    for err in result["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    measured = result["measured"]
    if trace:
        declared = json.loads(SPEC.read_text())["per_layer"]
        values = measured
    else:
        declared = json.loads(SPEC.read_text())["end_to_end"]
        values = {
            "setup_s": setup,
            "simulate_s": statistics.median(measured["simulate_s"]),
            "converge_s": statistics.median(measured["converge_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "success_rate": 1.0 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"# {workload} seed={seed} trace={trace}: "
          f"{attempted} commands, {failed} failed (fail_rate {failed / attempted:.3g})")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload and prefixes metric names with it")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "src/congested_flow/cli.py", "configs/two_block.json",
                   "configs/smooth_compression.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = _run_workload(name, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
