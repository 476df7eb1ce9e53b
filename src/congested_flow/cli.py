"""Command-line pipeline: discretize, evolve, interpolate, verify, export.

Configuration is a single JSON file validated up front with precise error
paths.  All CSV output uses 17-significant-digit floats in fixed column
orders, so identical configurations reproduce byte-identical artifacts.

Exit codes: 0 success, 1 invalid configuration or usage, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from .cone import project_onto_cone
from .dynamics import evolve, multipliers_at, pressure_measure
from .errors import CongestedFlowError, ConfigError
from .eulerian import pressure_pushforward, snapshot
from .fields import DeltaPadding, build_fields, convergence_study
from .initdata import MacroscopicDatum, datum_from_eulerian, quantile_sample, \
    rearrangement_from_density
from .piecewise import PiecewiseField
from .random_data import random_admissible_datum, random_projection_input
from .scenarios import selection_test, sticky_solution, rebound_solution, two_block_datum
from .testfunctions import build_test_family
from .verification import CHECK_NAMES, cone_oracle_sweep, run_battery

__all__ = ["main", "load_config"]

FAULTS = ("negative-lambda", "energy-bump", "stale-density")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _cfg_get(cfg: dict, path: str, typ, default=None, required=False):
    node = cfg
    parts = path.split(".")
    for p in parts[:-1]:
        node = node.get(p, {}) if isinstance(node, dict) else {}
    key = parts[-1]
    if not isinstance(node, dict) or key not in node:
        if required:
            raise ConfigError(f"{path}: missing required field")
        return default
    val = node[key]
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(f"{path}: expected {typ.__name__}, got {type(val).__name__}")
    return val


def _build_datum(cfg: dict) -> MacroscopicDatum:
    scn = cfg.get("scenario")
    if not isinstance(scn, dict):
        raise ConfigError("scenario: missing or not an object")
    name = scn.get("name")
    if name == "two_block":
        eta = _cfg_get(cfg, "scenario.eta", float, required=True)
        if not 0.0 < eta < 1.0:
            raise ConfigError(f"scenario.eta: must lie in (0, 1), got {eta}")
        return two_block_datum(eta)
    if name is not None and name != "custom":
        raise ConfigError(f"scenario.name: unknown scenario {name!r}")
    density = scn.get("density")
    if not isinstance(density, list) or not density:
        raise ConfigError("scenario.density: need a nonempty list of [a, b, value]")
    pieces = []
    for k, item in enumerate(density):
        if not (isinstance(item, list) and len(item) == 3):
            raise ConfigError(f"scenario.density[{k}]: expected [a, b, value]")
        a, b, v = (float(z) for z in item)
        if v > 1.0:
            raise ConfigError(f"scenario.density[{k}].value: {v} exceeds the threshold 1")
        if v < 0.0:
            raise ConfigError(f"scenario.density[{k}].value: negative")
        if not b > a:
            raise ConfigError(f"scenario.density[{k}]: empty interval")
        pieces.append((a, b, v))
    vel = scn.get("velocity")
    if not isinstance(vel, dict):
        raise ConfigError("scenario.velocity: missing or not an object")
    kind = vel.get("kind")
    pts = vel.get("pieces")
    if kind not in ("eulerian", "lagrangian"):
        raise ConfigError("scenario.velocity.kind: expected 'eulerian' or 'lagrangian'")
    if not isinstance(pts, list) or not pts:
        raise ConfigError("scenario.velocity.pieces: need [lo, hi, left_value, right_value] rows")
    try:
        breaks = [float(pts[0][0])] + [float(row[1]) for row in pts]
        lows = [float(row[0]) for row in pts]
        left = np.array([float(row[2]) for row in pts])
        right = np.array([float(row[3]) for row in pts])
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"scenario.velocity.pieces: malformed row ({exc})") from None
    for k, (lo, prev_hi) in enumerate(zip(lows[1:], breaks[1:-1]), start=1):
        if lo != prev_hi:
            raise ConfigError(
                f"scenario.velocity.pieces[{k}]: starts at {lo}, expected {prev_hi}")
    field = PiecewiseField(np.array(breaks), left, right)
    if kind == "eulerian":
        try:
            return datum_from_eulerian(pieces, field)
        except CongestedFlowError as exc:
            raise ConfigError(f"scenario: {exc}") from None
    try:
        return MacroscopicDatum(rearrangement_from_density(pieces), field)
    except CongestedFlowError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    cfg["_datum"] = _build_datum(cfg)
    cfg["_horizon"] = _cfg_get(cfg, "horizon", float, 1.0)
    if cfg["_horizon"] <= 0.0:
        raise ConfigError("horizon: must be positive")
    cfg["_delta"] = _cfg_get(cfg, "delta", float, 0.1)
    if cfg["_delta"] <= 0.0:
        raise ConfigError("delta: must be positive")
    cfg["_seed"] = _cfg_get(cfg, "seed", int, 0)
    n = cfg.get("n")
    n_list = cfg.get("n_list")
    if n is None and n_list is None:
        raise ConfigError("n: missing (provide n or n_list)")
    if n is not None and (not isinstance(n, int) or n < 2):
        raise ConfigError(f"n: need an integer >= 2, got {n!r}")
    if n_list is not None:
        if (not isinstance(n_list, list) or not n_list
                or any(not isinstance(k, int) or k < 2 for k in n_list)):
            raise ConfigError("n_list: need a list of integers >= 2")
    st = cfg.get("sample_times")
    if st is None:
        horizon = cfg["_horizon"]
        st = [horizon * k / 8.0 for k in range(1, 9)]
    elif (not isinstance(st, list)
          or any(not isinstance(t, (int, float)) for t in st)
          or any(t < 0.0 or t > cfg["_horizon"] for t in st)):
        raise ConfigError("sample_times: need numbers inside [0, horizon]")
    cfg["_sample_times"] = sorted(float(t) for t in st)
    toggles = cfg.get("checks", {})
    if not isinstance(toggles, dict) or any(not isinstance(v, bool) for v in toggles.values()):
        raise ConfigError("checks: need a {check_name: bool} object")
    for name in toggles:
        if name not in CHECK_NAMES and name != "cone_oracle":
            raise ConfigError(f"checks.{name}: unknown check")
    cfg["_checks"] = toggles
    return cfg


def _write_verification(cfg: dict, trace, out: Path, inject: str | None,
                        oracle_n: int | None = None) -> tuple[dict, list[str]]:
    """Run the battery, apply the config toggles and write verification.json.

    With ``oracle_n`` the KKT-oracle sweep at that n is added as
    ``cone_oracle``.  A disabled check, the oracle included, is reported as
    passed and marked skipped.  Returns the report and the names of the
    failed checks; ``all_passed`` holds when there are none.
    """
    checks = {r.name: {"passed": r.passed, "value": r.value, "tolerance": r.tolerance,
                       "detail": r.detail}
              for r in run_battery(trace, np.random.default_rng(cfg["_seed"]), inject=inject)}
    if oracle_n is not None:
        checks["cone_oracle"] = cone_oracle_sweep(
            [oracle_n], 50, np.random.default_rng(cfg["_seed"]))
    for name, enabled in cfg["_checks"].items():
        if name in checks and not enabled:
            checks[name].update(passed=True, detail="disabled by config", skipped=True)
    failed = [k for k, v in checks.items() if not v["passed"]]
    checks["all_passed"] = {"passed": not failed, "value": 0.0, "tolerance": 0.0,
                            "detail": "conjunction of all checks"}
    out.mkdir(parents=True, exist_ok=True)
    (out / "verification.json").write_text(json.dumps(checks, indent=2, sort_keys=True) + "\n")
    return checks, failed


def _pipeline(cfg: dict, n: int):
    datum = cfg["_datum"]
    x0, u0, cone = quantile_sample(datum, n)
    timeline = evolve(x0, u0, cone, cfg["_horizon"])
    trace = build_fields(timeline, DeltaPadding(cfg["_delta"]))
    return x0, u0, cone, timeline, trace


def cmd_simulate(cfg: dict, out: Path, inject: str | None) -> int:
    n = cfg.get("n") or cfg["n_list"][0]
    x0, u0, cone, timeline, trace = _pipeline(cfg, n)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "events.csv",
               ["t_event", "merged_lo", "merged_hi", "post_velocity"],
               [(float(e.time), e.index_range[0] + 1, e.index_range[1] + 1,
                 float(e.post_velocity)) for e in timeline.events])
    ts = cfg["_sample_times"]
    state_rows, mult_rows, snap_rows = [], [], []
    for st in timeline.iter_states(ts):
        mult = multipliers_at(st, u0)
        esnap = snapshot(st, cone, trace.padding)
        for i in range(n):
            state_rows.append((float(st.time), i + 1,
                               float(st.positions[i]), float(st.velocities[i])))
        for j, lam in enumerate(mult.lambdas):
            mult_rows.append((float(st.time), j, float(lam)))
        for i in range(esnap.density.size):
            snap_rows.append((float(st.time), float(esnap.edges[i]),
                              float(esnap.edges[i + 1]), float(esnap.density[i]),
                              float(esnap.velocity[i])))
    _write_csv(out / "states.csv", ["t", "particle", "x", "u"], state_rows)
    _write_csv(out / "multipliers.csv", ["t", "contact", "lambda"], mult_rows)
    _write_csv(out / "snapshots.csv",
               ["t", "x_left", "x_right", "density", "velocity"], snap_rows)
    measure = pressure_measure(timeline)
    press = pressure_pushforward(measure, trace)
    atom_rows = []
    for atom in press.atoms:
        for k in range(atom.contacts.size):
            atom_rows.append((float(atom.time), float(atom.x_left[k]),
                              float(atom.x_right[k]), float(atom.lineal_density[k])))
    _write_csv(out / "pressure_atoms.csv",
               ["t_event", "x_left", "x_right", "pressure_lineal_density"], atom_rows)
    checks, failed = _write_verification(cfg, trace, out, inject)
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        for k in failed:
            print(f"  {k}: value={checks[k]['value']:.3e} "
                  f"tol={checks[k]['tolerance']:.3e} ({checks[k]['detail']})",
                  file=sys.stderr)
        return 2
    print(f"simulate: n={n}, {len(timeline.events)} events, all checks passed")
    return 0


def cmd_converge(cfg: dict, out: Path, strict: bool, threads: int) -> int:
    n_list = cfg.get("n_list") or [cfg["n"]]
    datum = cfg["_datum"]
    study = convergence_study(datum, n_list, cfg["_horizon"], cfg["_sample_times"],
                              DeltaPadding(cfg["_delta"]), threads=threads)
    out.mkdir(parents=True, exist_ok=True)
    header = ["n", "t", "dist_X_L2", "dist_U_L2", "dist_Lambda_L2",
              "pressure_mass", "bv_X", "oleinik_max"]
    _write_csv(out / "convergence.csv", header,
               [tuple(row[k] for k in header) for row in study["rows"]])
    (out / "convergence_summary.json").write_text(json.dumps(
        {"sup": {str(k): v for k, v in study["sup"].items()},
         "reference_n": study["reference_n"], "rate_fit": study["rate_fit"]},
        indent=2, sort_keys=True) + "\n")
    sups = [study["sup"][n]["X"] for n in sorted(study["sup"]) if n != study["reference_n"]]
    monotone = all(b <= a for a, b in zip(sups, sups[1:]))
    if not monotone:
        print("warning: sup distances are not monotonically decreasing", file=sys.stderr)
        if strict:
            return 2
    if study["rate_fit"]:
        print(f"converge: empirical order {study['rate_fit']['empirical_order_X']:.2f} "
              f"against n={study['reference_n']}")
    else:
        print(f"converge: {len(study['rows'])} rows (no fit possible)")
    return 0


def cmd_verify(cfg: dict, out: Path, inject: str | None) -> int:
    n = cfg.get("n") or cfg["n_list"][0]
    *_, trace = _pipeline(cfg, n)
    _, failed = _write_verification(cfg, trace, out, inject, n if n <= 12 else None)
    print(f"verify: n={n}, {'FAILED: ' + ', '.join(failed) if failed else 'all checks passed'}")
    return 2 if failed else 0


def cmd_selection(eta: float, n_list: list[int], out: Path, horizon: float | None) -> int:
    if not 0.0 < eta < 1.0:
        print(f"error: eta must lie in (0, 1), got {eta}", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    sticky = sticky_solution(eta)
    rebound = rebound_solution(eta)
    tstar = eta / 2.0
    horizon = horizon or (2.0 * tstar + 0.5)
    fam_lo, fam_hi = -0.5, 2.0 + eta + horizon
    fns = build_test_family(fam_lo, fam_hi, horizon)
    branch_rows = []
    for sol in (sticky, rebound):
        mass, mom = sol.weak_form(horizon).family_residuals(fns)
        worst = max(max(abs(r) for r in mass), max(abs(r) for r in mom))
        branch_rows.append({
            "branch": sol.branch,
            "max_weak_residual": worst,
            "oleinik_max": max(sol.oleinik_ratio(t)
                               for t in np.linspace(tstar / 2, horizon, 9)),
            "profile_min": sol.profile_min(),
            "complementarity_max": sol.complementarity_max(),
        })
    reports = {}
    profile_rows = []
    for n in n_list:
        rep = selection_test(eta, n, horizon)
        trace = rep.pop("trace")
        rep.pop("timeline")
        reports[str(n)] = rep
        if trace.atoms:
            _, dlam = trace.atoms[-1]
            w = trace.w_grid
            for j in range(w.size):
                profile_rows.append((n, float(w[j]), float(dlam[j]),
                                     float(sticky.atom_profile(w[j]))))
    _write_csv(out / "selection_profiles.csv",
               ["n", "w", "simulated_jump", "analytic_profile"], profile_rows)
    report = {
        "eta": eta, "tstar": tstar, "branches": branch_rows, "selection": reports,
    }
    (out / "selection.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    ok = (all(r["max_weak_residual"] <= 1e-8 and r["oleinik_max"] < 1.0
              and r["profile_min"] >= -1e-12 and r["complementarity_max"] <= 1e-12
              for r in branch_rows)
          and all(r["passed"] for r in reports.values()))
    print(f"selection: eta={eta}, branches admissible, "
          f"sticky branch selected at n={sorted(n_list)}" if ok else "selection: FAILED")
    return 0 if ok else 2


def cmd_bench(sizes: list[int], out: Path | None, repeats: int = 3) -> int:
    rng = np.random.default_rng(1)
    rows = []
    for n in sizes:
        cone, y = random_projection_input(n, rng)
        best = np.inf
        for _ in range(repeats):
            t0 = _time.perf_counter()
            project_onto_cone(cone, y)
            best = min(best, _time.perf_counter() - t0)
        x0, u0, dcone = random_admissible_datum(n, rng)
        best_ev = np.inf
        for _ in range(repeats):
            t0 = _time.perf_counter()
            evolve(x0, u0, dcone, 1.0)
            best_ev = min(best_ev, _time.perf_counter() - t0)
        rows.append((n, float(best), float(best_ev)))
        print(f"bench: n={n:>8d} project={best:.6f}s evolve={best_ev:.6f}s")
    ok = True
    if len(rows) > 1:
        for (n0, p0, e0), (n1, p1, e1) in zip(rows, rows[1:]):
            # sub-millisecond baselines are noise-dominated; scaling claims
            # only make sense once the smaller measurement is resolvable
            if p0 >= 1e-3:
                growth = (p1 / p0) / (n1 / n0)
                if growth > 1.5:
                    ok = False
                    print(f"bench: projection ratio test failed between n={n0} and "
                          f"n={n1}: {growth:.2f}x linear", file=sys.stderr)
            if e0 >= 1e-3:
                growth_ev = (e1 / e0) / ((n1 * np.log(n1)) / (n0 * np.log(n0)))
                if growth_ev > 1.5:
                    ok = False
                    print(f"bench: evolution ratio test failed between n={n0} and "
                          f"n={n1}: {growth_ev:.2f}x n log n", file=sys.stderr)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "bench.csv", ["n", "project_seconds", "evolve_seconds"], rows)
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="congested-flow",
        description="Exact laboratory for 1d congested pressureless dynamics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("simulate", "run one n and export artifacts"),
                       ("converge", "self-convergence sweep over n_list"),
                       ("verify", "run the full invariant battery")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON scenario file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int,
                       default=int(os.environ.get("CONGESTED_FLOW_THREADS", "1")),
                       help="worker threads for the per-n pipelines of converge")
        if name == "converge":
            p.add_argument("--strict", action="store_true",
                           help="exit 2 if the sup distances are not decreasing")
        else:
            p.add_argument("--inject", choices=FAULTS, default=None,
                           help="corrupt one check input (negative control)")
    pc = sub.add_parser("selection", help="two-block collision: both closed-form branches and the particle-selected one")
    pc.add_argument("--eta", type=float, default=0.5)
    pc.add_argument("--n", type=int, nargs="+", default=[64])
    pc.add_argument("--horizon", type=float, default=None)
    pc.add_argument("--out", default="out")
    pb = sub.add_parser("bench", help="projection/evolution timing scaling")
    pb.add_argument("--sizes", type=int, nargs="+", default=[1000, 10000, 100000])
    pb.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "simulate":
            cfg = load_config(args.config)
            return cmd_simulate(cfg, Path(args.out), args.inject)
        if args.command == "converge":
            cfg = load_config(args.config)
            return cmd_converge(cfg, Path(args.out), args.strict, max(1, args.threads))
        if args.command == "verify":
            cfg = load_config(args.config)
            return cmd_verify(cfg, Path(args.out), args.inject)
        if args.command == "selection":
            return cmd_selection(args.eta, args.n, Path(args.out), args.horizon)
        if args.command == "bench":
            return cmd_bench(args.sizes, Path(args.out) if args.out else None)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CongestedFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
