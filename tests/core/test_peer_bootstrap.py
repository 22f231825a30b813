"""Tests for the normal peer and the bootstrap peer (Algorithm 1)."""

import gc
import weakref

import pytest

from repro.core.bootstrap import BootstrapPeer, PeerRecord
from repro.core.config import DaemonConfig
from repro.core.metrics import MetricsRegistry
from repro.core.peer import NormalPeer
from repro.core.schema_mapping import identity_mapping
from repro.core.access_control import Role, rule, READ
from repro.errors import BestPeerError, MembershipError, QueryRejectedError
from repro.sim import CloudProvider, SimNetwork
from repro.sqlengine import Column, ColumnType, TableSchema


def schemas():
    return {
        "item": TableSchema(
            "item",
            [
                Column("id", ColumnType.INTEGER),
                Column("price", ColumnType.FLOAT),
            ],
            primary_key="id",
        )
    }


@pytest.fixture
def cloud():
    return CloudProvider(SimNetwork())


@pytest.fixture
def bootstrap(cloud):
    return BootstrapPeer(cloud, schemas())


def make_peer(cloud, peer_id="peer-1"):
    instance = cloud.launch_instance(instance_id=f"i-{peer_id}")
    peer = NormalPeer(peer_id, instance)
    peer.create_table(schemas()["item"], secondary_indices=["price"])
    peer.set_schema_mapping(identity_mapping(schemas()))
    return peer


class TestNormalPeerBasics:
    def test_load_and_query(self, cloud):
        peer = make_peer(cloud)
        peer.load_initial("item", ["id", "price"], [(1, 10.0), (2, 20.0)])
        execution = peer.execute_local("SELECT SUM(price) FROM item")
        assert execution.result.scalar() == 30.0
        assert execution.seconds > 0

    def test_refresh_updates_timestamp(self, cloud):
        peer = make_peer(cloud)
        peer.load_initial("item", ["id", "price"], [(1, 10.0)], now=5.0)
        assert peer.last_refresh_at == 5.0
        peer.refresh("item", ["id", "price"], [(1, 15.0)], now=9.0)
        assert peer.last_refresh_at == 9.0

    def test_snapshot_semantics_definition2(self, cloud):
        peer = make_peer(cloud)
        peer.load_initial("item", ["id", "price"], [(1, 10.0)], now=5.0)
        # Query submitted at t=6, data refreshed at t=5: fine.
        peer.execute_local("SELECT * FROM item", query_timestamp=6.0)
        # Query submitted at t=4, data refreshed at t=5: rejected.
        with pytest.raises(QueryRejectedError):
            peer.execute_local("SELECT * FROM item", query_timestamp=4.0)

    def test_offline_peer_rejects_queries(self, cloud):
        peer = make_peer(cloud)
        cloud.crash_instance(peer.host)
        with pytest.raises(BestPeerError):
            peer.execute_local("SELECT 1 FROM item")

    def test_no_mapping_rejected(self, cloud):
        instance = cloud.launch_instance()
        peer = NormalPeer("p", instance)
        with pytest.raises(BestPeerError):
            peer.load_initial("item", ["id"], [])

    def test_fetch_applies_access_control(self, cloud):
        peer = make_peer(cloud)
        peer.load_initial("item", ["id", "price"], [(1, 10.0), (2, 500.0)])
        peer.access.assign(
            "bob",
            Role("limited", [
                rule("item.id", [READ]),
                rule("item.price", [READ], (0, 100)),
            ]),
        )
        execution = peer.execute_fetch(
            "item", "SELECT id, price FROM item", user="bob"
        )
        assert execution.result.rows == [(1, 10.0), (2, None)]

    def test_faster_instance_processes_faster(self, cloud):
        small = make_peer(cloud, "small")
        large_instance = cloud.launch_instance("m1.large", instance_id="i-large")
        large = NormalPeer("large", large_instance)
        large.create_table(schemas()["item"])
        large.set_schema_mapping(identity_mapping(schemas()))
        rows = [(i, float(i)) for i in range(500)]
        small.load_initial("item", ["id", "price"], rows)
        large.load_initial("item", ["id", "price"], rows)
        slow = small.execute_local("SELECT SUM(price) FROM item").seconds
        fast = large.execute_local("SELECT SUM(price) FROM item").seconds
        assert fast < slow

    def test_backup_restore_roundtrip(self, cloud):
        peer = make_peer(cloud)
        peer.load_initial("item", ["id", "price"], [(1, 10.0)], now=3.0)
        snapshot = peer.backup_to(cloud)
        # Wipe and restore.
        peer.database.execute("DELETE FROM item")
        peer.restore_from_payload(snapshot.payload)
        assert peer.execute_local("SELECT COUNT(*) FROM item").result.scalar() == 1
        assert peer.last_refresh_at == 3.0
        # Secondary indices rebuilt.
        assert peer.database.table("item").index_on("price") is not None


class TestMembership:
    def test_join_grants_certificate_and_metadata(self, cloud, bootstrap):
        peer = make_peer(cloud)
        grant = bootstrap.register_peer(peer, now=1.0)
        assert bootstrap.verify_certificate(grant.certificate)
        assert peer.certificate is grant.certificate
        assert "item" in grant.global_schemas
        assert bootstrap.is_member("peer-1")

    def test_double_join_rejected(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        with pytest.raises(MembershipError):
            bootstrap.register_peer(peer)

    def test_departure_revokes_certificate(self, cloud, bootstrap):
        peer = make_peer(cloud)
        grant = bootstrap.register_peer(peer)
        bootstrap.handle_departure("peer-1")
        assert not bootstrap.verify_certificate(grant.certificate)
        assert not bootstrap.is_member("peer-1")

    def test_blacklisted_peer_cannot_rejoin(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        bootstrap.handle_departure("peer-1")
        with pytest.raises(MembershipError):
            bootstrap.register_peer(peer)

    def test_departure_of_unknown_peer_rejected(self, bootstrap):
        with pytest.raises(MembershipError):
            bootstrap.handle_departure("ghost")

    def test_departed_instance_released_at_epoch_end(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        bootstrap.handle_departure("peer-1")
        report = bootstrap.run_maintenance_epoch({})
        assert peer.host in report.released_instances

    def test_admission_policy_rejects_joins(self, cloud):
        bootstrap = BootstrapPeer(
            cloud,
            schemas(),
            admission_policy=lambda peer_id: peer_id.startswith("trusted-"),
        )
        accepted = make_peer(cloud, "trusted-1")
        bootstrap.register_peer(accepted)
        rejected = make_peer(cloud, "shady-1")
        with pytest.raises(MembershipError):
            bootstrap.register_peer(rejected)
        assert not bootstrap.is_member("shady-1")

    def test_register_rejects_unverifiable_certificate(self, cloud, bootstrap):
        # §3.1: credentials are CA-verified before admission; a CA that
        # cannot vouch for its own issuance must not admit the peer.
        peer = make_peer(cloud)
        bootstrap.ca.verify = lambda certificate: False
        with pytest.raises(MembershipError, match="failed CA verification"):
            bootstrap.register_peer(peer)
        assert not bootstrap.is_member("peer-1")
        assert peer.certificate is None

    def test_user_registry(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        bootstrap.register_user("alice", "peer-1")
        assert bootstrap.user_registry["alice"] == "peer-1"
        with pytest.raises(MembershipError):
            bootstrap.register_user("bob", "nonmember")


class TestAlgorithm1:
    def test_healthy_network_no_events(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        report = bootstrap.run_maintenance_epoch({"peer-1": peer})
        assert report.failovers == []
        assert report.scalings == []
        assert report.notified_peers == 1

    def test_failover_restores_from_backup(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        peer.load_initial("item", ["id", "price"], [(1, 10.0), (2, 20.0)])
        peer.backup_to(cloud)
        old_host = peer.host
        cloud.crash_instance(old_host)

        report = bootstrap.run_maintenance_epoch({"peer-1": peer})

        assert len(report.failovers) == 1
        event = report.failovers[0]
        assert event.old_instance_id == old_host
        assert event.restored_rows == 2
        assert event.duration_s > 0
        # Peer is alive again on a fresh instance with its data back.
        assert peer.online
        assert peer.host != old_host
        result = peer.execute_local("SELECT COUNT(*) FROM item").result
        assert result.scalar() == 2
        # The crashed instance is released in the same epoch.
        assert old_host in report.released_instances

    def test_a_second_backup_releases_the_first(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        peer.load_initial("item", ["id", "price"], [(1, 10.0), (2, 20.0)])
        first = weakref.ref(peer.backup_to(cloud).payload)
        refreshed = [(1, 10.0), (2, 25.0), (3, 30.0)]
        peer.refresh("item", ["id", "price"], refreshed, now=1.0)
        second = peer.backup_to(cloud)
        gc.collect()
        # Only the newest snapshot is a restore point; the one it replaced
        # pinned its payload, and with it the table's old column lists.
        assert first() is None
        assert cloud.latest_snapshot(peer.host) is second
        cloud.crash_instance(peer.host)

        report = bootstrap.run_maintenance_epoch({"peer-1": peer})

        assert report.failovers[0].restored_rows == 3
        result = peer.execute_local("SELECT id, price FROM item ORDER BY id")
        assert result.result.rows == refreshed

    def test_failover_without_backup_loses_unbacked_data(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        peer.load_initial("item", ["id", "price"], [(1, 10.0)])
        cloud.crash_instance(peer.host)
        report = bootstrap.run_maintenance_epoch({"peer-1": peer})
        assert report.failovers[0].restored_rows == 0

    def test_cpu_overload_triggers_upgrade(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        peer.instance.cpu_utilization = 0.95
        report = bootstrap.run_maintenance_epoch({"peer-1": peer})
        assert any(event.action == "upgrade" for event in report.scalings)
        assert peer.instance.instance_type.name == "m1.medium"

    def test_low_storage_triggers_extension(self, cloud, bootstrap):
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        peer.instance.storage_used_gb = peer.instance.storage_gb - 0.5
        report = bootstrap.run_maintenance_epoch({"peer-1": peer})
        assert any(event.action == "add-storage" for event in report.scalings)

    def test_vanished_blacklisted_instance_is_skipped_and_counted(self, cloud):
        # A blacklist entry whose instance the cloud no longer knows about
        # (reclaimed out of band) must not abort the release sweep — and
        # must not vanish silently either.
        metrics = MetricsRegistry()
        bootstrap = BootstrapPeer(cloud, schemas(), metrics=metrics)
        peer = make_peer(cloud)
        bootstrap.register_peer(peer)
        bootstrap.handle_departure("peer-1")
        ghost = PeerRecord("ghost", bootstrap.ca.issue("ghost", 0.0), "i-ghost")
        bootstrap._blacklist.append(ghost)

        report = bootstrap.run_maintenance_epoch({})

        # The known instance is still released despite the ghost entry.
        assert report.released_instances == [peer.host]
        assert report.release_skips == 1
        assert metrics.faults.blacklist_release_skips == 1
        assert bootstrap._blacklist == []

    def test_top_tier_instance_not_upgraded(self, cloud, bootstrap):
        instance = cloud.launch_instance("m1.xlarge", instance_id="i-max")
        peer = NormalPeer("maxed", instance)
        bootstrap.register_peer(peer)
        peer.instance.cpu_utilization = 0.99
        report = bootstrap.run_maintenance_epoch({"maxed": peer})
        assert not any(event.action == "upgrade" for event in report.scalings)
