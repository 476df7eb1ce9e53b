"""Command-line contract: config validation, artifacts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from congested_flow import cli, fields
from congested_flow.cli import main
from congested_flow.cone import SpacingCone
from congested_flow.dynamics import evolve, multipliers_at, pressure_measure
from congested_flow.eulerian import pressure_pushforward, snapshot
from congested_flow.fields import DeltaPadding, build_fields
from congested_flow.verification import CHECK_NAMES, run_battery

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "scenario": {"name": "two_block", "eta": 0.5},
        "n": 32,
        "horizon": 1.0,
        "delta": 0.1,
        "sample_times": [0.1, 0.2, 0.4, 0.8],
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_two_block_event_cascade(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "events.csv").read_text().strip().splitlines()
    assert lines[0] == "t_event,merged_lo,merged_hi,post_velocity"
    assert len(lines) == 2  # single merge covering all particles
    t, lo, hi, v = lines[1].split(",")
    assert float(t) == pytest.approx(0.25, abs=1e-12)
    assert (int(lo), int(hi)) == (1, 32)
    assert float(v) == 0.0
    assert (out / "verification.json").exists()
    assert (out / "snapshots.csv").exists()
    assert (out / "pressure_atoms.csv").exists()


def test_simulate_rigid_translation_empty_events(tmp_path):
    cfg = write_config(
        tmp_path,
        scenario={
            "name": "custom",
            "density": [[0.0, 2.0, 0.5]],
            "velocity": {"kind": "lagrangian", "pieces": [[0.0, 1.0, 0.7, 0.7]]},
        },
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "events.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_invalid_density_exits_one_with_field_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        scenario={
            "name": "custom",
            "density": [[0.0, 1.0, 1.2]],
            "velocity": {"kind": "lagrangian", "pieces": [[0.0, 1.0, 0.0, 0.0]]},
        },
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "scenario.density[0]" in err


CUSTOM = {"name": "custom", "density": [[0.0, 2.0, 0.5]],
          "velocity": {"kind": "lagrangian", "pieces": [[0.0, 1.0, 0.0, 0.0]]}}


@pytest.mark.parametrize("overrides, message", [
    ({"scenario": dict(CUSTOM, density=[[0.0, "x", 0.5]])},
     "scenario.density[0]: expected a number, got str"),
    ({"scenario": dict(CUSTOM, density=[[0.0, 2.0, True]])},
     "scenario.density[0]: expected a number, got bool"),
    ({"scenario": dict(CUSTOM, velocity={"kind": "lagrangian",
                                         "pieces": [[0.0, 1.0, False, 0.0]]})},
     "scenario.velocity.pieces[0]: expected a number, got bool"),
    ({"scenario": {"name": "two_block", "eta": True}}, "scenario.eta: expected float, got bool"),
    ({"horizon": True}, "horizon: expected float, got bool"),
    ({"delta": True}, "delta: expected float, got bool"),
    ({"seed": False}, "seed: expected int, got bool"),
    ({"sample_times": [True]}, "sample_times: need numbers inside [0, horizon]"),
])
def test_non_numbers_exit_one_with_field_path(tmp_path, capsys, overrides, message):
    # a JSON bool is a Python int, and a string is no number either
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", [[0.0, 1.0, 0.0, 0.0, "junk"], [0.0, 1.0, 0.0], "0 1 0 0"],
                         ids=["extra_entry", "missing_entry", "not_a_list"])
def test_velocity_piece_rows_need_four_entries(tmp_path, capsys, row):
    # as a density row needs exactly [a, b, value]
    velocity = {"kind": "lagrangian", "pieces": [row]}
    cfg = write_config(tmp_path, scenario=dict(CUSTOM, velocity=velocity))
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert ("error: scenario.velocity.pieces[0]: expected [lo, hi, left_value, right_value]"
            in capsys.readouterr().err)
    assert not out.exists()


def shipped_with(name, edit):
    """configs/NAME.json after ``edit``, a function that changes the parsed dict in place."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    edit(cfg)
    return cfg


@pytest.mark.parametrize("name, edit, message", [
    ("two_block", lambda c: c.update(horizon=math.nan),
     "horizon: expected a finite number, got nan"),
    ("two_block", lambda c: c.update(horizon=math.inf),
     "horizon: expected a finite number, got inf"),
    ("two_block", lambda c: c.update(delta=math.inf),
     "delta: expected a finite number, got inf"),
    ("smooth_compression", lambda c: c["scenario"]["density"].append([3.0, 4.0, math.nan]),
     "scenario.density[1]: expected a finite number, got nan"),
    ("smooth_compression",
     lambda c: c["scenario"]["velocity"].update(pieces=[[-10.0, 10.0, math.nan, -9.0]]),
     "scenario.velocity.pieces[0]: expected a finite number, got nan"),
    ("two_block", lambda c: c["sample_times"].append(math.nan),
     "sample_times: need numbers inside [0, horizon]"),
    ("two_block", lambda c: c.update(sample_times=[]),
     "sample_times: need numbers inside [0, horizon]"),
], ids=["horizon_nan", "horizon_inf", "delta_inf", "density_nan", "velocity_nan",
        "sample_time_nan", "sample_times_empty"])
def test_non_finite_numbers_exit_one_before_any_output(tmp_path, capsys, name, edit, message):
    # Python's json reads NaN, Infinity and -Infinity as floats
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(shipped_with(name, edit)))
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "converge"])
def test_empty_sample_times_exit_one_before_any_output(tmp_path, capsys, command):
    # simulate would write header-only CSVs and converge a study of 0 rows
    path = write_config(tmp_path, n_list=[16, 32], sample_times=[])
    out = tmp_path / "x"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "error: sample_times: need numbers inside [0, horizon]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_seed_exits_one_before_any_output(tmp_path, capsys, command):
    # numpy's generator refuses it, so the config check must come before any CSV
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(shipped_with("two_block", lambda c: c.update(seed=-1))))
    out = tmp_path / "x"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "error: seed: need a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_missing_n_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": {"name": "two_block", "eta": 0.5}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "n:" in capsys.readouterr().err


def test_simulate_deterministic_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    for name in ("events.csv", "states.csv", "multipliers.csv",
                 "snapshots.csv", "pressure_atoms.csv", "verification.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("fault, target", [
    ("negative-lambda", "complementarity"),
    # two_block's energy drops from 1 to 0: a verdict shifted by 1 would still pass
    ("energy-bump", "energy_dissipation"),
    ("stale-density", "eulerian_reconstruction"),
])
def test_verify_reports_and_inject_fails_only_target(tmp_path, fault, target):
    cfg = write_config(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["all_passed"]["passed"]
    assert "cone_oracle" not in report  # n = 32 > 12
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--inject", fault]) == 2
    report = json.loads((out / "verification.json").read_text())
    failed = [k for k, v in report.items() if not v["passed"] and k != "all_passed"]
    assert failed == [target]


def test_verify_small_n_includes_oracle(tmp_path):
    cfg = write_config(tmp_path, n=8)
    out = tmp_path / "v8"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["cone_oracle"]["passed"]


def test_converge_monotone_and_strict_flag(tmp_path):
    cfg = write_config(tmp_path, n_list=[16, 32, 64], sample_times=[0.1, 0.4, 0.8])
    del_cfg = json.loads(cfg.read_text())
    del del_cfg["n"]
    cfg.write_text(json.dumps(del_cfg))
    out = tmp_path / "c"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "n,t,dist_X_L2,dist_U_L2,dist_Lambda_L2,pressure_mass,bv_X,oleinik_max"
    assert len(lines) == 1 + 3 * 3
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert summary["reference_n"] == 64


def test_converge_single_n_no_fit(tmp_path):
    cfg = write_config(tmp_path, n_list=[16])
    out = tmp_path / "c1"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert summary["rate_fit"] is None


def test_selection_command(tmp_path):
    out = tmp_path / "sel"
    assert main(["selection", "--eta", "0.5", "--n", "16", "32", "--out", str(out)]) == 0
    report = json.loads((out / "selection.json").read_text())
    assert report["tstar"] == 0.25
    assert {b["branch"] for b in report["branches"]} == {"sticky", "rebound"}
    assert all(b["max_weak_residual"] <= 1e-8 for b in report["branches"])
    assert report["selection"]["16"]["passed"]
    assert report["selection"]["32"]["passed"]
    profiles = (out / "selection_profiles.csv").read_text().splitlines()
    assert profiles[0] == "n,w,simulated_jump,analytic_profile"


def test_flags_a_command_ignored_are_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for argv in (["simulate", "--strict"], ["verify", "--strict"],
                 ["converge", "--inject", "negative-lambda"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_selection_rejects_bad_eta(capsys):
    assert main(["selection", "--eta", "1.5", "--n", "16"]) == 1


@pytest.mark.parametrize("horizon", ["0", "-1", "0.1", "inf", "nan"])
def test_selection_rejects_a_horizon_before_the_collision(tmp_path, capsys, horizon):
    out = tmp_path / "s"
    assert main(["selection", "--eta", "0.5", "--n", "16", "--horizon", horizon,
                 "--out", str(out)]) == 1
    assert "error: horizon: must be finite and exceed the collision time eta/2 = 0.25" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["3", "0", "-2"])
def test_selection_rejects_a_particle_count_before_any_work(tmp_path, capsys, n):
    out = tmp_path / "s"
    assert main(["selection", "--eta", "0.5", "--n", "16", n, "--out", str(out)]) == 1
    assert f"error: n: need even particle counts >= 2 for the symmetric split, got {n}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_bench_smoke(tmp_path):
    out = tmp_path / "b"
    assert main(["bench", "--sizes", "500", "2000", "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,project_seconds,evolve_seconds"
    assert len(lines) == 3


def test_eulerian_velocity_config_roundtrip(tmp_path):
    # u(x) = 1 - x over a dilute density: compression toward x = 1
    cfg = write_config(
        tmp_path,
        scenario={
            "name": "custom",
            "density": [[0.0, 2.0, 0.5]],
            "velocity": {"kind": "eulerian", "pieces": [[-10.0, 10.0, 11.0, -9.0]]},
        },
        n=64,
    )
    out = tmp_path / "e"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "events.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # the uniform compression collapses in one cascade
    assert float(lines[1].split(",")[0]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("pieces, uncovered", [
    ([[-10.0, 0.5, 11.0, -9.0]], "[0.5, 2.0]"),
    ([[1.0, 10.0, 0.0, -9.0]], "[0.0, 1.0]"),
], ids=["right", "left"])
def test_eulerian_velocity_must_cover_the_density(tmp_path, capsys, pieces, uncovered):
    # u0 read past its last piece would be extrapolated, not given
    scenario = dict(CUSTOM, velocity={"kind": "eulerian", "pieces": pieces})
    cfg = write_config(tmp_path, scenario=scenario)
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert (f"so not on {uncovered} of the density's support [0.0, 2.0]"
            in capsys.readouterr().err)
    assert not out.exists()


def test_check_toggles_disable_one_check(tmp_path):
    cfg = write_config(tmp_path, checks={"weak_residuals": False})
    out = tmp_path / "t"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["weak_residuals"].get("skipped") is True
    # disabling the corrupted check turns the negative control green again
    cfg2 = write_config(tmp_path, name="cfg2.json", checks={"complementarity": False})
    assert main(["verify", "--config", str(cfg2), "--out", str(out),
                 "--inject", "negative-lambda"]) == 0


def test_unknown_check_toggle_rejected_before_any_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path, n=8, checks={"weak_residual": False, "cone_oracle": False})
    out = tmp_path / "u"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: checks.weak_residual: unknown check" in capsys.readouterr().err
    assert not out.exists()
    cfg = write_config(tmp_path, n=8, checks={"cone_oracle": False})
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["cone_oracle"].get("skipped") is True


def test_check_names_match_the_battery():
    tl = evolve(np.array([0.0, 2.0]), np.array([1.0, -1.0]), SpacingCone(2, 1.0), 2.0)
    assert tuple(r.name for r in run_battery(build_fields(tl))) == CHECK_NAMES


def test_converge_deterministic_across_runs(tmp_path):
    cfg = write_config(tmp_path, n_list=[16, 32], sample_times=[0.2, 0.6])
    out_a, out_b = tmp_path / "ca", tmp_path / "cb"
    assert main(["converge", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["converge", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "convergence.csv").read_bytes() == (out_b / "convergence.csv").read_bytes()
    assert (out_a / "convergence_summary.json").read_bytes() == \
        (out_b / "convergence_summary.json").read_bytes()


def test_velocity_pieces_must_be_contiguous(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        scenario={
            "name": "custom",
            "density": [[0.0, 2.0, 0.5]],
            "velocity": {"kind": "lagrangian",
                         "pieces": [[0.0, 0.4, 1.0, 1.0], [0.5, 1.0, 1.0, 1.0]]},
        },
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "scenario.velocity.pieces[1]" in capsys.readouterr().err


def test_converge_non_monotone_warns_and_strict_fails(tmp_path, capsys):
    # an odd resolution breaks the symmetric two-block split and spikes
    # the self-convergence distance, producing a non-monotone sweep
    cfg = write_config(tmp_path, n_list=[16, 17, 18, 128], sample_times=[0.4, 0.8])
    out = tmp_path / "nm"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    assert "not monotonically decreasing" in capsys.readouterr().err
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--strict"]) == 2


def test_simulate_passes_with_disjoint_merges_at_one_instant(tmp_path):
    # four saturated quarters, alternately moving right and left: the two
    # pairs close their gaps at the same instant, in separate merges
    cfg = write_config(
        tmp_path, n=64,
        scenario={
            "name": "custom",
            "density": [[0.0, 0.25, 1.0], [0.5, 0.75, 1.0], [1.0, 1.25, 1.0],
                        [1.5, 1.75, 1.0]],
            "velocity": {"kind": "lagrangian",
                         "pieces": [[0.0, 0.25, 1.0, 1.0], [0.25, 0.5, -1.0, -1.0],
                                    [0.5, 0.75, 1.0, 1.0], [0.75, 1.0, -1.0, -1.0]]},
        },
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    events = (out / "events.csv").read_text().strip().splitlines()[1:]
    assert len({line.split(",")[0] for line in events}) < len(events)


def _write_one(path, header, blocks):
    cli._write_csv(path.parent, {path.name: (header, blocks)})


def test_csv_writer_matches_format_and_str_on_hostile_values(tmp_path):
    bits = np.random.default_rng(0).integers(0, 2**63, 2000, dtype=np.uint64)
    floats = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              1e16, 1e17, 9007199254740993.0, 0.1, 1 / 3, math.inf, -math.inf, math.nan,
              -math.nan] + (bits | (bits & 1) << 63).view(np.float64).tolist()
    ints = [(-1) ** k * (2**63 - 1 - k * 7919) for k in range(len(floats))]
    uints = [2**64 - 1 - k for k in range(len(floats))]
    path = tmp_path / "h.csv"
    _write_one(path, ["f", "i", "u"],
               [(floats[:9], ints[:9], np.array(uints[:9], dtype=np.uint64)),
                (floats[9:], ints[9:], np.array(uints[9:], dtype=np.uint64))])
    expected = ["f,i,u"] + [f"{format(f, '.17g')},{i},{u}"
                            for f, i, u in zip(floats, ints, uints)]
    assert path.read_text() == "\n".join(expected) + "\n"
    for empty in ([], [([], [])]):
        _write_one(path, ["f", "i"], empty)
        assert path.read_text() == "f,i\n"
    for bad in ([True, False], [None, 1.0], ["a", "b"], [2**64, 1]):
        with pytest.raises(TypeError):
            _write_one(path, ["f", "x"], [([1.0, 2.0], bad)])
    for ragged in ([([1.0, 2.0], [1])], [([1.0],)], [([[1.0]], [1])]):
        with pytest.raises(ValueError):
            _write_one(path, ["f", "x"], ragged)


def _per_row_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _repeated_hostile_columns(rows):
    """Five columns drawn from small pools of hostile values, so most cells repeat."""
    rng = np.random.default_rng(5)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0x7FF00000DEADBEEF, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    pool = np.concatenate(([0.0, -0.0, math.inf, -math.inf, 0.75, 1 / 3, 5e-324, 1e16],
                           nans))
    pool32 = np.concatenate((np.array([0.0, -0.0, math.inf, -math.inf, 0.75, 0.1, 1 / 3],
                                      dtype=np.float32),
                             np.array([0x7FC00000, 0xFFC00000, 0x7FC00001],
                                      dtype=np.uint32).view(np.float32)))
    a, b = pool[rng.integers(0, pool.size, rows)], pool[rng.integers(0, pool.size, rows)]
    f32 = pool32[rng.integers(0, pool32.size, rows)]
    a[::5] = b[::5] = f32[::5] = 0.75  # one value in every float column of a row
    i64 = rng.choice(np.array([-2**63, -1, 0, 7, 2**63 - 1]), rows)
    u64 = np.uint64(2**64 - 1) - rng.integers(0, 3, rows).astype(np.uint64)
    return a, b, i64, u64, f32


@pytest.mark.parametrize("chunk_rows", [1, 7, cli._CSV_CHUNK_ROWS])
def test_csv_writer_matches_per_row_export_on_repeated_hostile_values(tmp_path, monkeypatch,
                                                                      chunk_rows):
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
    header = ["a", "b", "i", "u", "f32"]
    columns = _repeated_hostile_columns(300)
    for col in (columns[0], columns[1], columns[4]):
        zero_signs = np.signbit(col[col == 0.0])
        assert zero_signs.any() and not zero_signs.all() and np.isinf(col).any()
        assert np.unique(col[np.isnan(col)].view(f"u{col.itemsize}")).size > 1
    ref_rows = list(zip(*(c.tolist() for c in columns)))
    whole = [columns]
    single = [tuple(c[:1] for c in columns)]
    one_row_blocks = [tuple(c[i:i + 1] for c in columns) for i in range(300)]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    for blocks, rows in ((whole, ref_rows), (single, ref_rows[:1]),
                         (one_row_blocks, ref_rows)):
        _write_one(got, header, blocks)
        _per_row_csv(ref, header, rows)
        assert got.read_bytes() == ref.read_bytes()


def test_csv_writer_memory_is_bounded_by_the_text_it_writes(tmp_path):
    # a snapshots.csv-shaped file: six times, shared cell edges, few densities
    # and velocities; holding every row's text as Python objects at once, as
    # a per-row writer does, peaks near 5x the file size
    rng = np.random.default_rng(0)
    blocks = []
    for t in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0):
        edges = t + np.cumsum(rng.uniform(0.5, 1.5, 5001))
        blocks.append((np.full(5000, t), edges[:-1], edges[1:],
                       rng.choice([0.25, 0.5, 1.0], 5000),
                       rng.choice(np.linspace(-1.0, 1.0, 8), 5000)))
    path = tmp_path / "snapshots.csv"
    header = ["t", "x_left", "x_right", "density", "velocity"]
    _write_one(path, header, blocks[:1])  # one-time allocations stay unmeasured
    tracemalloc.start()
    try:
        _write_one(path, header, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * path.stat().st_size


def _shared_table_files():
    """Five files whose values recur across files, columns, dtypes and kinds."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    x = np.concatenate(([0.75, 0.0, -0.0, 0.1], nans,
                        np.random.default_rng(9).uniform(-1.0, 1.0, 40)))
    one_bits = int(np.array(1.0).view(np.uint64))  # a float's bits as a uint64 value
    return {
        # x ends each row of a.csv and starts each row of b.csv
        "a.csv": (["t", "x"], [(np.full(x.size, 0.5), x)]),
        "b.csv": (["x", "i", "u"], [(x[::-1], np.full(x.size, -1),
                                      np.full(x.size, 2**64 - 1, dtype=np.uint64))]),
        "empty.csv": (["p", "q"], []),
        "c.csv": (["f32", "f64", "u"],
                  [(np.float32([0.75, 0.1, -0.0, np.nan, 1.0]),
                    np.array([0.75, 0.1, 0.0, nans[2], 1.0]),
                    np.array([one_bits, 1, 2**64 - 1, 0, one_bits], dtype=np.uint64))]),
        "d.csv": (["i", "x"], [(np.array([-1, 0, 2**63 - 1]), np.array([-0.0, nans[1], 1.0]))]),
    }


@pytest.mark.parametrize("chunk_rows", [1, 7, cli._CSV_CHUNK_ROWS])
def test_csv_writer_shares_its_tables_across_files_bytewise(tmp_path, monkeypatch,
                                                            chunk_rows):
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
    files = _shared_table_files()
    together, alone, ref = tmp_path / "together", tmp_path / "alone", tmp_path / "ref"
    for d in (together, alone, ref):
        d.mkdir()
    cli._write_csv(together, files)
    assert sorted(p.name for p in together.iterdir()) == sorted(files)
    for name, (header, blocks) in files.items():
        cli._write_csv(alone, {name: (header, blocks)})
        columns = [np.concatenate(col).tolist() for col in zip(*blocks)]
        _per_row_csv(ref / name, header, list(zip(*columns)))
        text = (together / name).read_bytes()
        assert text == (alone / name).read_bytes() == (ref / name).read_bytes(), name
    assert (together / "b.csv").read_text().splitlines()[1].endswith(",-1,18446744073709551615")
    assert (together / "c.csv").read_text().splitlines()[1:3] == [
        f"0.75,0.75,{2**62 - 2**52}", "0.10000000149011612,0.10000000000000001,1"]


def test_csv_writer_checks_every_file_before_writing_any(tmp_path):
    files = _shared_table_files()
    for bad, error in (([1.0, 2.0], [True, False]), TypeError), (([1.0, 2.0], [1]), ValueError):
        with pytest.raises(error, match="z.csv"):
            cli._write_csv(tmp_path, dict(files, **{"z.csv": (["f", "x"], [bad])}))
        assert list(tmp_path.iterdir()) == []


def test_csv_writer_memory_over_files_is_bounded_by_the_text_it_writes(tmp_path):
    # simulate-shaped: the positions of states.csv are the cell edges of
    # snapshots.csv, so the two files share most of their float texts
    rng = np.random.default_rng(0)
    velocities = np.linspace(-1.0, 1.0, 8)
    states, snaps = [], []
    for t in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0):
        x = t + np.cumsum(rng.uniform(0.5, 1.5, 5001))
        states.append((np.full(5001, t), np.arange(1, 5002), x, rng.choice(velocities, 5001)))
        snaps.append((np.full(5000, t), x[:-1], x[1:], rng.choice([0.25, 0.5, 1.0], 5000),
                      rng.choice(velocities, 5000)))
    files = {"states.csv": (["t", "particle", "x", "u"], states),
             "empty.csv": (["t", "x"], []),
             "snapshots.csv": (["t", "x_left", "x_right", "density", "velocity"], snaps)}
    # one-time allocations stay unmeasured
    cli._write_csv(tmp_path, {k: (header, blocks[:1]) for k, (header, blocks) in files.items()})
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path, files)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * sum((tmp_path / name).stat().st_size for name in files)


def _per_row_export(cfg, out):
    """The simulate CSVs written one Python tuple per row: the reference."""
    n = cfg.get("n") or cfg["n_list"][0]
    trace = fields._run_single(cfg["_datum"], n, cfg["_horizon"], DeltaPadding(cfg["_delta"]))
    timeline = trace.timeline
    u0, cone = timeline.u0, timeline.cone
    out.mkdir(parents=True)
    _per_row_csv(out / "events.csv", ["t_event", "merged_lo", "merged_hi", "post_velocity"],
                 [(float(e.time), e.index_range[0] + 1, e.index_range[1] + 1,
                   float(e.post_velocity)) for e in timeline.events])
    state_rows, mult_rows, snap_rows = [], [], []
    for st in timeline.iter_states(cfg["_sample_times"]):
        lam = multipliers_at(st, u0)
        esnap = snapshot(st, cone, trace.padding)
        for i in range(n):
            state_rows.append((float(st.time), i + 1,
                               float(st.positions[i]), float(st.velocities[i])))
        for j, lam_j in enumerate(lam):
            mult_rows.append((float(st.time), j, float(lam_j)))
        for i in range(esnap.density.size):
            snap_rows.append((float(st.time), float(esnap.edges[i]),
                              float(esnap.edges[i + 1]), float(esnap.density[i]),
                              float(esnap.velocity[i])))
    _per_row_csv(out / "states.csv", ["t", "particle", "x", "u"], state_rows)
    _per_row_csv(out / "multipliers.csv", ["t", "contact", "lambda"], mult_rows)
    _per_row_csv(out / "snapshots.csv",
                 ["t", "x_left", "x_right", "density", "velocity"], snap_rows)
    atom_rows = []
    for atom in pressure_pushforward(pressure_measure(timeline)):
        for k in range(atom.contacts.size):
            atom_rows.append((float(atom.time), float(atom.x_left[k]),
                              float(atom.x_right[k]), float(atom.lineal_density[k])))
    _per_row_csv(out / "pressure_atoms.csv",
                 ["t_event", "x_left", "x_right", "pressure_lineal_density"], atom_rows)


@pytest.mark.parametrize("case", ["two_block", "smooth_compression", "simultaneous",
                                  "no_event"])
def test_simulate_csvs_equal_the_per_row_export(tmp_path, monkeypatch, case):
    if case in ("two_block", "smooth_compression"):
        cfg_path = CONFIGS / f"{case}.json"
    elif case == "simultaneous":
        # two disjoint pairs touching at t = 1/8: two atoms at one instant
        cone = SpacingCone.canonical(4)
        x0, u0 = np.array([0.0, 0.5, 2.5, 3.0]), np.array([1.0, -1.0, 1.0, -1.0])
        monkeypatch.setattr(fields, "quantile_sample", lambda datum, n: (x0, u0, cone))
        cfg_path = write_config(tmp_path, n=4, sample_times=[0.0, 0.125, 0.5, 1.0])
    else:
        cfg_path = write_config(tmp_path, scenario={
            "name": "custom", "density": [[0.0, 2.0, 0.5]],
            "velocity": {"kind": "lagrangian", "pieces": [[0.0, 1.0, 0.7, 0.7]]}})
    out, ref = tmp_path / "columns", tmp_path / "rows"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    _per_row_export(cli.load_config(str(cfg_path)), ref)
    for name in ("events.csv", "states.csv", "multipliers.csv", "snapshots.csv",
                 "pressure_atoms.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    atoms = (out / "pressure_atoms.csv").read_text().splitlines()
    if case == "no_event":
        assert atoms == ["t_event,x_left,x_right,pressure_lineal_density"]
    if case == "simultaneous":
        assert [line.split(",")[0] for line in atoms[1:]] == ["0.125", "0.125"]


def test_load_config_leaves_numpy_ma_unimported(tmp_path):
    # np.unique asks np.ma.is_masked, whose first call imports numpy.ma, about
    # as long as the rest of load_config in a fresh process
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys, json\n"
        "sys.path.insert(0, sys.argv[1] + '/perfbench')\n"
        "from pathlib import Path\n"
        "import workloads\n"
        "from congested_flow.cli import load_config\n"
        "for c in ('two_block', 'smooth_compression'):\n"
        "    load_config(sys.argv[1] + f'/configs/{c}.json')\n"
        "for name in workloads.WORKLOADS:\n"
        "    p = workloads.write_config(Path(sys.argv[1]), name, 1,\n"
        "                               Path(sys.argv[2]) / f'{name}.json')\n"
        "    load_config(str(p))\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", code, str(root), str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
