"""Command-line contract: config validation, artifacts, exit codes, determinism."""

import json

import pytest

from congested_flow.cli import main


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


def test_verify_reports_and_inject_fails_only_target(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["all_passed"]["passed"]
    assert "cone_oracle" not in report  # n = 32 > 12
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--inject", "negative-lambda"]) == 2
    report = json.loads((out / "verification.json").read_text())
    failed = [k for k, v in report.items() if not v["passed"] and k != "all_passed"]
    assert failed == ["complementarity"]


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
