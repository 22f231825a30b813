"""Network-facade tests: fail-over, consistency, membership churn."""

import pytest

from repro.core import BestPeerNetwork
from repro.errors import BestPeerError, PeerUnavailableError
from repro.sim import FaultPlan, Outage
from repro.tpch import Q1, Q2, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator


def build_network(n=3, scale=0.5):
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=21, scale=scale)
    for index in range(n):
        peer_id = f"corp-{index}"
        net.add_peer(peer_id)
        net.load_peer(peer_id, generator.generate_peer(index))
    return net


class TestFailoverDuringQueries:
    def test_query_blocks_until_failover_then_succeeds(self):
        net = build_network()
        baseline = net.execute(Q2(), engine="basic")
        net.crash_peer("corp-1")

        execution = net.execute(Q2(), engine="basic")

        # Strong consistency: the answer includes corp-1's data (recovered
        # from its EBS backup), never a partial result.
        assert execution.scalar() == pytest.approx(baseline.scalar())
        # The fail-over wait is charged to the query.
        assert execution.blocked_on_failover_s > 0
        assert execution.latency_s > baseline.latency_s
        assert net.total_blocked_s > 0

    def test_peer_is_rebound_to_new_instance(self):
        net = build_network()
        old_host = net.peers["corp-1"].host
        net.crash_peer("corp-1")
        net.execute(Q2(), engine="basic")
        assert net.peers["corp-1"].host != old_host
        assert net.peers["corp-1"].online

    def test_unbacked_changes_lost_but_service_continues(self):
        net = build_network()
        # Data loaded after the last backup is lost on fail-over.
        peer = net.peers["corp-2"]
        peer.database.execute(
            "DELETE FROM lineitem"
        )  # diverge from the backup
        net.crash_peer("corp-2")
        execution = net.execute(Q2(), engine="basic")
        assert execution.scalar() is not None  # restored from snapshot

    def test_multiple_crashes_all_recovered(self):
        net = build_network()
        baseline = net.execute(Q2(), engine="basic")
        net.crash_peer("corp-0")
        net.crash_peer("corp-2")
        execution = net.execute(Q2(), engine="basic", peer_id="corp-1")
        assert execution.scalar() == pytest.approx(baseline.scalar())


class TestRetryBackoff:
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(seed=7, drop_probability=0.35),
            FaultPlan(seed=202, outages=[Outage("i-000002", start=1, end=4)]),
        ],
        ids=["drops", "outage"],
    )
    def test_backoff_is_reported_and_charged(self, plan):
        baseline = build_network().execute(Q2(), engine="basic")
        assert baseline.retry_backoff_s == 0.0
        net = build_network()
        net.install_fault_plan(plan)

        execution = net.execute(Q2(), engine="basic")

        assert execution.scalar() == pytest.approx(baseline.scalar())
        assert execution.retry_backoff_s > 0
        # The resubmitted query does the fault-free query's work; the
        # backoff before it is what the faults added to its latency.
        assert execution.latency_s == pytest.approx(
            baseline.latency_s + execution.retry_backoff_s
        )


class TestRefreshAfterFailover:
    def test_differential_refresh_diffs_against_restored_state(self):
        """Regression: the loader must be rebound to the restored database.

        Before the fix, fail-over rebuilt ``peer.database`` but the
        DataLoader kept writing to the orphaned pre-crash database (and
        diffed against an unrestored snapshot store), so the first refresh
        after a recovery silently disappeared from query results.
        """
        net = build_network(2)
        generator = TpchGenerator(seed=21, scale=0.5)

        net.crash_peer("corp-1")
        net.execute(Q2(ship_date="1995-01-01"), engine="basic")  # fail-over
        assert net.peers["corp-1"].online

        # Refresh the recovered peer: drop every lineitem row.
        delta = net.refresh_peer("corp-1", "lineitem", [])
        assert delta.deleted  # the diff saw the restored rows
        total = net.execute("SELECT COUNT(*) FROM lineitem").scalar()
        solo = net.peers["corp-0"].database.execute(
            "SELECT COUNT(*) FROM lineitem"
        ).scalar()
        assert total == solo  # corp-1 contributes nothing anymore

    def test_loader_snapshots_travel_with_backups(self):
        net = build_network(2)
        peer = net.peers["corp-1"]
        snapshot_before = peer.loader.snapshot_of("orders")
        net.crash_peer("corp-1")
        net.execute(Q2(ship_date="1995-01-01"), engine="basic")
        assert net.peers["corp-1"].loader.snapshot_of("orders") == (
            snapshot_before
        )


class TestMembership:
    def test_departed_peer_leaves_no_index_entries(self):
        net = build_network()
        before = net.execute(Q1(), engine="basic")
        assert before.peers_contacted == 3
        net.depart_peer("corp-2")
        after = net.execute(Q1(), engine="basic")
        assert after.peers_contacted == 2
        assert len(after.records) < len(before.records)

    def test_departed_peer_unknown_afterwards(self):
        net = build_network()
        net.depart_peer("corp-2")
        with pytest.raises(BestPeerError):
            net.execute(Q1(), peer_id="corp-2")

    def test_duplicate_peer_rejected(self):
        net = build_network(2)
        with pytest.raises(BestPeerError):
            net.add_peer("corp-0")

    def test_late_joiner_contributes_after_load(self):
        net = build_network(2)
        before = net.execute(Q2(), engine="basic")
        net.add_peer("corp-late")
        net.load_peer(
            "corp-late", TpchGenerator(seed=21, scale=0.5).generate_peer(7)
        )
        after = net.execute(Q2(), engine="basic")
        assert after.scalar() > before.scalar()

    def test_empty_network_rejects_queries(self):
        net = BestPeerNetwork(TPCH_SCHEMAS)
        with pytest.raises(BestPeerError):
            net.execute("SELECT COUNT(*) FROM lineitem")


class TestSnapshotConsistency:
    def test_refresh_after_submission_triggers_resubmit(self):
        net = build_network(2)
        # Make corp-1's data newer than any in-flight timestamp: the engine
        # must transparently resubmit with a fresh timestamp and succeed.
        net.clock.advance(100.0)
        peer = net.peers["corp-1"]
        generator = TpchGenerator(seed=21, scale=0.5)
        peer.refresh(
            "lineitem",
            TPCH_SCHEMAS["lineitem"].column_names,
            generator.generate_peer(1)["lineitem"],
            now=net.clock.now + 50.0,  # "future" refresh
        )
        execution = net.execute(Q2(), engine="basic")
        assert execution.scalar() is not None


class TestPricing:
    def test_pay_as_you_go_charges_accumulate(self):
        net = build_network(2)
        execution = net.execute(Q2(), engine="basic")
        assert execution.dollar_cost > 0
        bigger = net.execute(Q1(ship_date="1992-01-01",
                                commit_date="1992-01-01"), engine="basic")
        assert bigger.dollar_cost > execution.dollar_cost
