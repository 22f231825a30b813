"""BENCHMARK.json, golden.json and run.py agree with the metric tables."""

import json
from pathlib import Path

from bench_e2e import run
from bench_e2e.stats import DRIVER_END_TO_END, DRIVER_SIM_BOUND, PER_LAYER
from bench_e2e.workloads import FIXED_ROUNDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_tables():
    assert BENCHMARK["paths"] == ["bench_e2e"]
    assert BENCHMARK["command"] == ["python3", "bench_e2e/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.WORKLOAD_NAMES == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why and len(entry["why"]) <= 200
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in DRIVER_END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # wall metrics carry compare.py's bound; exact ones get room for seeds to differ
    for metric in DRIVER_END_TO_END:
        assert bounds[metric.name] == (metric.bound or DRIVER_SIM_BOUND)
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_golden_covers_the_fixed_rounds_of_every_workload():
    golden = json.loads(run.GOLDEN_PATH.read_text())
    assert golden["seed"] == 42
    assert set(golden["workloads"]) == set(WORKLOADS)
    for name, entry in golden["workloads"].items():
        assert entry["peers"] == WORKLOADS[name].default_peers
        assert len(entry["round_digests"]) == FIXED_ROUNDS
        assert entry["sim_latency_s"] > 0 and entry["bytes_shipped"] > 0


def _report_from_golden(name):
    entry = json.loads(run.GOLDEN_PATH.read_text())["workloads"][name]
    return {
        "workload": name, "seed": 42, "peers": entry["peers"],
        "round_digests": list(entry["round_digests"]),
        "metrics": {"sim_latency_s": entry["sim_latency_s"],
                    "bytes_shipped": entry["bytes_shipped"]},
    }


def test_golden_check_catches_an_edited_digest_and_a_drifted_latency():
    report = _report_from_golden("join_fetch")
    assert run.check_golden(report) == []
    report["round_digests"][3] = "0" * 16
    assert len(run.check_golden(report)) == 1
    report = _report_from_golden("join_fetch")
    report["metrics"]["sim_latency_s"] *= 1 + 1e-6
    assert len(run.check_golden(report)) == 1
    # other seeds and peer counts have no golden to meet
    report = _report_from_golden("join_fetch")
    report["round_digests"][0] = "0" * 16
    assert run.check_golden(dict(report, seed=7)) == []
    assert run.check_golden(dict(report, peers=4)) == []


def test_driver_line_has_exactly_the_contract_keys():
    metrics = {m.name: 1.5 for m in DRIVER_END_TO_END}
    metrics["failed_frac"] = 0.0
    line = json.loads(run.driver_line(
        {"failed": 0, "attempted": 12, "metrics": metrics}, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 12
    assert set(line["metrics"]) == {m.name for m in DRIVER_END_TO_END}
    assert line["metrics"]["round_ms_p50"] == {"value": 1.5, "unit": "ms"}
    traced = json.loads(run.driver_line(
        {"failed": 2, "attempted": 12, "metrics": {m.name: 0.0 for m in PER_LAYER}}, trace=True))
    assert traced["correct"] is False and traced["failed"] == 2
    assert set(traced["metrics"]) == {m.name for m in PER_LAYER}
