"""Self-tests of the benchmark's own code.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

from congested_flow import cli
from congested_flow.initdata import quantile_sample, rearrangement_from_density
from tracer import Tracer
from workloads import SATURATED, WORKLOADS, workload_config, write_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
def test_random_contacts_loads_and_samples_admissibly(tmp_path, seed):
    _, n, n_list = WORKLOADS["random_contacts"]
    path = write_config(ROOT, "random_contacts", seed, tmp_path / "cfg.json")
    cfg = cli.load_config(str(path))
    for k in [n] + n_list:
        x0, u0, cone = quantile_sample(cfg["_datum"], k)
        assert x0.size == k
        # interior piece boundaries stay off the i/k grid by a clear margin
        w = cfg["_datum"].x0_map.breaks[1:-1] * k
        assert np.min(np.abs(w - np.round(w))) > 0.01


@pytest.mark.parametrize("seed", [0, 3])
def test_random_contacts_shape(seed):
    scn = workload_config(ROOT, "random_contacts", seed)["scenario"]
    values = [v for _, _, v in scn["density"]]
    assert len(values) == 64
    assert [v == 1.0 for v in values] == list(SATURATED)
    assert not any(SATURATED[1:] & SATURATED[:-1])
    # velocity breaks coincide with the mass breaks of the rearrangement
    breaks = [p[0] for p in scn["velocity"]["pieces"]] + [1.0]
    assert breaks == rearrangement_from_density(scn["density"]).breaks.tolist()
    for (_, _, v), (_, _, left, right) in zip(scn["density"], scn["velocity"]["pieces"]):
        if v == 1.0:
            assert left == right
        else:
            assert left > right  # compressive


def test_random_contacts_is_seeded():
    a = workload_config(ROOT, "random_contacts", 4)
    assert a == workload_config(ROOT, "random_contacts", 4)
    assert a != workload_config(ROOT, "random_contacts", 5)
    assert json.loads(json.dumps(a)) == a


def test_tracer_self_times_partition_the_root(tmp_path):
    cfg = workload_config(ROOT, "two_block_large", 0)
    cfg.update(n=64, n_list=[32, 64])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    plain = tmp_path / "plain"
    traced = tmp_path / "traced"
    assert cli.main(["simulate", "--config", str(path), "--out", str(plain)]) == 0

    original = cli.run_battery
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run_battery is not original
        assert cli.main(["simulate", "--config", str(path), "--out", str(traced)]) == 0
    finally:
        tracer.uninstall()
    assert cli.run_battery is original

    for p in plain.iterdir():
        assert (traced / p.name).read_bytes() == p.read_bytes()
    own, total = tracer.self_times()
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    root_time = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(own.values()) == pytest.approx(root_time, rel=1e-9)
    assert min(own.values()) >= -1e-6
    assert total["verification.battery"] >= own["verification.battery"]
    assert tracer.counts["dynamics.events"] == 1
    assert tracer.counts["dynamics.states"] > 0
