"""Two rounds of every workload at four peers, untraced and traced."""

import json

import pytest

from bench_e2e import worker
from bench_e2e.stats import DRIVER_END_TO_END, PER_LAYER
from bench_e2e.workloads import WORKLOADS


def _run(capsys, *arguments):
    assert worker.main(list(arguments)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_round_smoke(name, capsys):
    report = _run(capsys, "--workload", name, "--seed", "42", "--mode", "measure",
                  "--rounds", "2", "--peers", "4")
    assert report["failed"] == 0, report["failures"]
    assert report["rounds"] == 2 and len(report["round_digests"]) == 2
    assert report["attempted"] >= 2
    for metric in DRIVER_END_TO_END:
        if metric.name == "setup_s":
            assert report["setup_s"] > 0
        else:
            assert report["metrics"][metric.name] > 0, metric.name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_round_traced_smoke(name, capsys):
    report = _run(capsys, "--workload", name, "--seed", "42", "--mode", "trace",
                  "--rounds", "2", "--peers", "4")
    assert report["failed"] == 0, report["failures"]
    layers = report["traced_metrics"]
    assert set(layers) == {metric.name for metric in PER_LAYER}
    assert all(value is not None for value in layers.values())
    # self times account for (nearly) all of the time inside the front doors
    assert 0.95 <= layers["bench.self_ms_sum_frac"] <= 1.0
    summed = sum(v for k, v in layers.items()
                 if k.endswith("_ms") and k != "bench.traced_round_ms")
    assert summed == pytest.approx(layers["bench.traced_round_ms"], rel=0.05)


def test_same_seed_same_simulated_numbers(capsys):
    arguments = ("--workload", "supply_chain_mixed", "--seed", "7", "--mode", "measure",
                 "--rounds", "3", "--peers", "4")
    first, second = _run(capsys, *arguments), _run(capsys, *arguments)
    for key in ("sim_latency_s", "bytes_shipped"):
        assert first["metrics"][key] == second["metrics"][key]
    assert first["round_digests"] == second["round_digests"]
