"""Smoke tests for the perf-regression microbenchmark harness.

Tiny scale, single repeat: these verify the harness's *mechanics* — payload
shape, equivalence gating, baseline comparison — not performance itself
(that is the CI ``perf-smoke`` job's contract, and it compares ratios, not
absolute times).
"""

import json

import pytest

from repro.bench import microbench
from repro.bench.microbench import (
    KERNELS,
    build_database,
    check_against_baseline,
    kernel_sql,
    main,
    run_kernel,
    run_microbench,
    run_plan_cache_workload,
)
from repro.sqlengine.executor import ExecStats, Executor
from repro.sqlengine.expr import RowLayout
from repro.sqlengine.vexecutor import VectorizedExecutor

SMOKE = {"scale": 0.05, "repeat": 1}


def small_payload():
    return run_microbench(scale=SMOKE["scale"], repeat=SMOKE["repeat"])


class TestHarness:
    def test_payload_covers_every_kernel(self):
        payload = small_payload()
        assert set(payload["kernels"]) == {name for name, _ in KERNELS}
        for entry in payload["kernels"].values():
            # Two timings and the one ratio between them, nothing else.
            assert set(entry) == {
                "name", "sql", "rows_out", "stats",
                "interpreted_s", "vectorized_s", "vectorized_speedup",
            }
            assert entry["rows_out"] >= 0
            assert entry["interpreted_s"] > 0
            assert entry["vectorized_s"] > 0
            assert entry["vectorized_speedup"] > 0
            assert set(entry["stats"]) == {
                "rows_scanned",
                "rows_output",
                "index_probes",
                "join_build_rows",
                "join_probe_rows",
            }

    def test_modes_that_disagree_are_never_timed(self, monkeypatch):
        empty = (RowLayout(["x"]), [], ExecStats())
        monkeypatch.setattr(Executor, "execute", lambda *args: empty)
        monkeypatch.setattr(
            microbench, "_time_modes", lambda *args: pytest.fail("timed anyway")
        )
        with pytest.raises(AssertionError, match="row mismatch"):
            run_kernel(build_database(scale=SMOKE["scale"]), *KERNELS[0], repeat=1)

    def test_kernels_produce_rows(self):
        # Selectivities must not degenerate at small scale — an empty
        # kernel would time nothing.
        payload = small_payload()
        for name, entry in payload["kernels"].items():
            assert entry["rows_out"] > 0, name

    def test_only_index_agg_takes_the_index_path(self):
        # lineitem.l_orderkey is indexed for ``index_agg`` alone: the other
        # five kernels keep the plans (and floors) they had without it.
        db = build_database(scale=SMOKE["scale"])
        indexed = {
            name
            for name, sql in KERNELS
            if "(index " in db.explain(kernel_sql(sql, SMOKE["scale"]))
        }
        assert indexed == {"index_agg"}
        plan = db.explain(kernel_sql(dict(KERNELS)["index_agg"], SMOKE["scale"]))
        assert plan.endswith(
            "Scan lineitem AS lineitem (index range l_orderkey in [25, +inf])"
        )

    def test_index_agg_selects_about_half_at_every_scale(self):
        for scale in (0.05, 0.5):
            db = build_database(scale=scale)
            sql = kernel_sql(dict(KERNELS)["index_agg"], scale)
            scanned = db.execute(sql).stats.rows_scanned
            assert 0.4 < scanned / len(db.table("lineitem")) < 0.6, scale

    def test_every_timed_run_executes_its_kernels(self, monkeypatch):
        # The database remembers a plan's last result; a timed run answered
        # from it would time nothing.  Warm-up plus two repeats, per mode,
        # and a repeat in one mode too (no mode switch in between).
        runs = {"interpreted": 0, "vectorized": 0}
        for mode, cls in (("interpreted", Executor), ("vectorized", VectorizedExecutor)):
            def counting(self, plan, _original=cls.execute, _mode=mode):
                runs[_mode] += 1
                return _original(self, plan)

            monkeypatch.setattr(cls, "execute", counting)
        db = build_database(scale=SMOKE["scale"])
        sql = kernel_sql(KERNELS[0][1], SMOKE["scale"])
        microbench._time_modes(db, sql, repeat=2)
        assert runs == {"interpreted": 3, "vectorized": 3}
        microbench._time_once(db, sql, "vectorized")
        microbench._time_once(db, sql, "vectorized")
        assert runs == {"interpreted": 3, "vectorized": 5}

    def test_plan_cache_workload_hits(self):
        db = build_database(scale=SMOKE["scale"])
        counters = run_plan_cache_workload(db, rounds=5)
        assert counters == {"hits": 4, "misses": 1}

    def test_dataset_is_deterministic(self):
        first = build_database(scale=SMOKE["scale"])
        second = build_database(scale=SMOKE["scale"])
        sql = "SELECT * FROM lineitem ORDER BY l_orderkey, l_extendedprice"
        assert first.execute(sql).rows == second.execute(sql).rows


class TestBaselineCheck:
    def test_passes_against_itself(self):
        payload = small_payload()
        assert check_against_baseline(payload, payload) == []

    def test_fails_on_lost_speedup(self):
        payload = small_payload()
        greedy = {
            "kernels": {
                name: {"vectorized_speedup": entry["vectorized_speedup"] * 10}
                for name, entry in payload["kernels"].items()
            }
        }
        failures = check_against_baseline(payload, greedy)
        assert failures
        assert all("fell below" in failure for failure in failures)

    def test_fails_on_lost_vectorized_ratio(self):
        # One kernel losing its ratio fails the gate, and the failure names
        # the kernel and the ratio.
        payload = small_payload()
        lost = payload["kernels"]["scan"]["vectorized_speedup"] * 10
        greedy = {"kernels": {"scan": {"vectorized_speedup": lost}}}
        failures = check_against_baseline(payload, greedy)
        assert len(failures) == 1
        assert failures[0].startswith("scan: vectorized_speedup ")

    def test_fails_on_missing_kernel(self):
        payload = small_payload()
        baseline = {"kernels": {"no_such_kernel": {"vectorized_speedup": 1.0}}}
        failures = check_against_baseline(payload, baseline)
        assert failures == ["no_such_kernel: kernel missing from current run"]

    def test_fails_on_zero_cache_hits(self):
        payload = small_payload()
        payload["plan_cache"] = {"hits": 0, "misses": 20}
        failures = check_against_baseline(payload, payload)
        assert any("plan_cache" in failure for failure in failures)

    def test_tolerance_absorbs_noise(self):
        payload = small_payload()
        # A baseline 20% above the measurement stays inside the 25% band.
        near = {
            "kernels": {
                name: {"vectorized_speedup": entry["vectorized_speedup"] * 1.2}
                for name, entry in payload["kernels"].items()
            }
        }
        assert check_against_baseline(payload, near) == []


class TestCli:
    def test_out_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        code = main(
            ["--scale", "0.05", "--repeat", "1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["kernels"]) == {name for name, _ in KERNELS}
        assert "plan cache:" in capsys.readouterr().out

    def test_check_failure_sets_exit_code(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"kernels": {"scan": {"vectorized_speedup": 1000.0}}})
        )
        code = main(
            ["--scale", "0.05", "--repeat", "1", "--check", str(baseline)]
        )
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().err
