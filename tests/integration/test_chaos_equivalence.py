"""Chaos equivalence: seeded fault schedules must never change answers.

The TPC-H workload runs once fault-free and once under each seeded
:class:`FaultPlan`; results must be row-identical while the fault-tolerance
counters prove the faults actually happened and were absorbed (retries,
fail-overs, re-fetches) rather than silently skipped.
"""

import pytest

from repro.core import BestPeerNetwork
from repro.sim import ChaosHarness, FaultPlan, LinkFault, Outage
from repro.tpch import Q1, Q2, Q3, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator


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
    def test_join_query_survives_drops(self):
        h = harness(
            queries=[Q3(ship_date="1998-09-01", order_date="1998-09-01")],
            engine="parallel",
        )
        runs = h.verify_equivalence(
            {"drops": FaultPlan(seed=77, drop_probability=0.1)}
        )
        assert runs["drops"].row_sets() == runs["baseline"].row_sets()

    def test_join_query_survives_outage(self):
        h = harness(
            queries=[Q3(ship_date="1998-09-01", order_date="1998-09-01")],
            engine="parallel",
        )
        runs = h.verify_equivalence(
            {"outage": FaultPlan(seed=88,
                                 outages=[Outage("i-000003", 1, 3)])}
        )
        assert runs["outage"].wire.total > 0
