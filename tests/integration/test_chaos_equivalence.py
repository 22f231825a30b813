"""Chaos equivalence: seeded fault schedules must never change answers.

The TPC-H workload runs once fault-free and once under each seeded
:class:`FaultPlan`; results must be row-identical while the fault-tolerance
counters prove the faults actually happened and were absorbed (retries,
fail-overs, re-fetches) rather than silently skipped.
"""

import pytest

from repro.core import BestPeerNetwork, engine_basic
from repro.mapreduce import MapReduceEngine
from repro.plan.driver import DistributedPlanDriver
from repro.sim import ChaosHarness, FaultPlan, LinkFault, Outage
from repro.sqlengine.vexecutor import VectorizedExecutor
from repro.tpch import (
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    TpchGenerator,
)


def build_network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=21, scale=0.4)
    for index in range(3):
        peer_id = f"corp-{index}"
        net.add_peer(peer_id)
        net.load_peer(peer_id, generator.generate_peer(index))
    return net


def harness(queries=None, engine="basic"):
    return ChaosHarness(
        build_network,
        queries or [Q2(), Q1(ship_date="1998-11-01")],
        engine=engine,
    )


# Three qualitatively different fault schedules (ISSUE acceptance: drops,
# transient unavailability, crash-during-query), all seeded.
def drop_plan():
    # seed 7 at p=0.35 deterministically drops four deliveries over this
    # workload — enough to prove the retry path ran.
    return FaultPlan(seed=7, drop_probability=0.35)


def outage_plan():
    # corp-1 runs on the second auto-launched instance; refuse a window of
    # deliveries so the query path must retry through it.
    return FaultPlan(seed=202, outages=[Outage("i-000002", start=1, end=4)])


def crash_plan():
    # corp-2's partition is still pending when transfer #1 completes: the
    # crash lands mid-query and forces an engine-level fail-over.
    return FaultPlan(seed=303, crash_after={1: "corp-2"})


class TestEquivalence:
    def test_answers_identical_under_all_plans(self):
        runs = harness().verify_equivalence(
            {
                "drops": drop_plan(),
                "outages": outage_plan(),
                "crash": crash_plan(),
            }
        )
        baseline = runs["baseline"]
        assert all(outcome.rows for outcome in baseline.outcomes)
        for name in ("drops", "outages", "crash"):
            assert runs[name].row_sets() == baseline.row_sets()
            assert runs[name].wire.total > 0, name

    def test_fault_free_run_reports_zero_fault_counters(self):
        run = harness().run(None)
        assert run.faults.retries == 0
        assert run.faults.failovers == 0
        assert run.wire.total == 0
        assert run.total_blocked_s == 0.0

    def test_chaos_run_reports_nonzero_counters(self):
        run = harness().run(drop_plan())
        assert run.wire.dropped_messages > 0
        assert run.faults.retries > 0
        crash_run = harness().run(crash_plan())
        assert crash_run.wire.injected_crashes == 1
        assert crash_run.faults.failovers >= 1
        assert crash_run.total_blocked_s > 0

    def test_combined_plan_with_slow_links(self):
        plan = FaultPlan(
            seed=404,
            drop_probability=0.1,
            link_faults=[
                LinkFault(src="i-000003", bandwidth_factor=0.25,
                          extra_latency_s=0.05)
            ],
            outages=[Outage("i-000001", start=2, end=4)],
        )
        runs = harness().verify_equivalence({"combined": plan})
        assert runs["combined"].wire.total > 0

    def test_latency_grows_under_chaos_but_rows_do_not(self):
        h = harness(queries=[Q2()])
        baseline = h.run(None)
        chaotic = h.run(drop_plan())
        assert chaotic.row_sets() == baseline.row_sets()
        assert (
            chaotic.outcomes[0].latency_s > baseline.outcomes[0].latency_s
        )


class TestRepeatedQueryUnderChaos:
    def test_a_repeat_answers_as_the_first_run(self, monkeypatch):
        # The basic engine's query peer replays a repeat over the batches it
        # fetched before; under every plan a repeat answers as the first run
        # did, and fault-free it did replay.
        planned = []

        class Counting(VectorizedExecutor):
            def execute(self, plan):
                planned.append(plan)
                return super().execute(plan)

        monkeypatch.setattr(engine_basic, "VectorizedExecutor", Counting)
        h = harness(queries=[Q4(), Q4()])
        baseline = h.run(None)
        assert len(planned) == 1
        assert baseline.outcomes[0].rows
        for plan in (drop_plan(), outage_plan(), crash_plan()):
            run = h.run(plan)
            assert run.wire.total > 0, plan.seed
            for outcome in run.outcomes:
                assert (outcome.columns, outcome.rows) == (
                    baseline.outcomes[0].columns, baseline.outcomes[0].rows
                ), plan.seed


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        h = harness()
        first = h.run(drop_plan())
        second = h.run(drop_plan())
        assert first.fingerprint() == second.fingerprint()

    def test_different_seed_different_schedule(self):
        h = harness()
        first = h.run(FaultPlan(seed=3, drop_probability=0.3))
        second = h.run(FaultPlan(seed=4, drop_probability=0.3))
        # The answers agree even though the fault schedules differ.
        assert first.row_sets() == second.row_sets()
        assert (
            first.wire.dropped_messages != second.wire.dropped_messages
            or first.faults.retries != second.faults.retries
        )

    def test_crash_schedule_deterministic(self):
        h = harness()
        assert (
            h.run(crash_plan()).fingerprint()
            == h.run(crash_plan()).fingerprint()
        )


class TestPartialRefetch:
    def test_crash_mid_query_refetches_only_failed_partition(self):
        """Sub-query recovery: the surviving partitions are not re-shipped.

        A crash mid-query costs at most the failed peer's partition again;
        a whole-query restart would roughly double the bytes moved.
        """
        h = harness(queries=[Q2()])
        baseline = h.run(None)
        crashed = h.run(crash_plan())
        assert crashed.row_sets() == baseline.row_sets()
        assert crashed.faults.failovers >= 1
        extra = crashed.bytes_transferred - baseline.bytes_transferred
        assert extra <= 0.6 * baseline.bytes_transferred

    def test_refetch_visible_in_network_byte_counters(self):
        h = harness(queries=[Q2()])
        # Wire-level accounting (SimNetwork.total) includes wasted traffic;
        # even so, sub-query recovery keeps it well below a full restart.
        net_baseline = build_network()
        net_baseline.execute(Q2())
        wire_baseline = net_baseline.network.total.bytes

        net_chaos = build_network()
        net_chaos.install_fault_plan(crash_plan())
        net_chaos.execute(Q2())
        wire_chaos = net_chaos.network.total.bytes

        assert wire_chaos - wire_baseline <= 0.6 * wire_baseline


class TestParallelEngineUnderChaos:
    # Q3 returns 58 rows on this network; a join that returns nothing, or a
    # plan that injects nothing, would compare two runs that prove nothing.
    def test_join_query_survives_drops(self):
        h = harness(queries=[Q3()], engine="parallel")
        runs = h.verify_equivalence({"drops": drop_plan()})
        assert runs["baseline"].outcomes[0].rows
        assert runs["drops"].row_sets() == runs["baseline"].row_sets()
        assert runs["drops"].wire.dropped_messages > 0
        assert runs["drops"].faults.retries > 0

    def test_join_query_survives_outage(self):
        h = harness(queries=[Q3()], engine="parallel")
        runs = h.verify_equivalence(
            {"outage": FaultPlan(seed=88,
                                 outages=[Outage("i-000003", 1, 3)])}
        )
        assert runs["baseline"].outcomes[0].rows
        assert runs["outage"].row_sets() == runs["baseline"].row_sets()
        assert runs["outage"].wire.transient_rejections > 0
        assert runs["outage"].faults.retries > 0


class TestMapReduceEngineUnderChaos:
    @pytest.mark.parametrize(
        "query", [Q2(), Q3(), Q4()], ids=["Q2", "Q3", "Q4"]
    )
    def test_crash_inside_a_job_fails_over_and_reruns(self, query):
        # The crash partitions a host the job is shuffling with; the
        # engine reports the peer unavailable, the facade blocks on its
        # fail-over and resubmits the whole query.
        h = harness(queries=[query], engine="mapreduce")
        runs = h.verify_equivalence({"crash": crash_plan()})
        assert runs["baseline"].outcomes[0].rows
        assert runs["crash"].row_sets() == runs["baseline"].row_sets()
        assert runs["crash"].wire.injected_crashes == 1
        assert runs["crash"].faults.failovers >= 1
        assert runs["crash"].fingerprint() == h.run(crash_plan()).fingerprint()

    @pytest.mark.parametrize(
        "query", [Q2(), Q3(), Q4()], ids=["Q2", "Q3", "Q4"]
    )
    def test_outage_is_retried_and_answers_match(self, query):
        # Deliveries refused in the outage window are retried; the rows are
        # the fault-free run's, and the faulted run repeats exactly.
        h = harness(queries=[query], engine="mapreduce")
        runs = h.verify_equivalence({"outage": outage_plan()})
        assert runs["baseline"].outcomes[0].rows
        assert runs["outage"].row_sets() == runs["baseline"].row_sets()
        assert runs["outage"].wire.transient_rejections > 0
        assert runs["outage"].faults.retries > 0
        assert runs["outage"].fingerprint() == h.run(outage_plan()).fingerprint()

    @pytest.mark.parametrize(
        "query", [Q3(), Q4(), Q5()], ids=["Q3", "Q4", "Q5"]
    )
    def test_a_repeat_answers_as_the_first_run(self, monkeypatch, query):
        # Fault-free, the repeat replays the job chain the first run kept.
        # Under a crash or an outage a run the fault fails keeps nothing,
        # and the facade's resubmission answers as the fault-free run.
        replayed, kept_after_failure = [], []
        run_job = MapReduceEngine.run_job
        run = DistributedPlanDriver.run

        def counting(self, job, inputs=None, replay=None):
            replayed.append(replay is not None)
            return run_job(self, job, inputs, replay)

        def failing(self, plan, query_id):
            try:
                return run(self, plan, query_id)
            except Exception:
                kept_after_failure.append(plan.last_chain)
                raise

        monkeypatch.setattr(MapReduceEngine, "run_job", counting)
        monkeypatch.setattr(DistributedPlanDriver, "run", failing)
        h = harness(queries=[query, query], engine="mapreduce")
        baseline = h.run(None)
        first = baseline.outcomes[0]
        assert first.rows and any(replayed) and not kept_after_failure
        assert (baseline.outcomes[1].columns, baseline.outcomes[1].rows) == (
            first.columns, first.rows
        )
        for plan in (crash_plan(), outage_plan()):
            kept_after_failure.clear()
            chaotic = h.run(plan)
            assert chaotic.wire.total > 0, plan.seed
            assert chaotic.faults.failovers + chaotic.faults.retries > 0, plan.seed
            assert kept_after_failure, plan.seed
            assert all(chain is None for chain in kept_after_failure), plan.seed
            for outcome in chaotic.outcomes:
                assert (outcome.columns, outcome.rows) == (
                    first.columns, first.rows
                ), plan.seed
