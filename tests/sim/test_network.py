"""Tests for the simulated network fabric."""

import pytest

from repro.errors import NetworkError
from repro.sim import NetworkConfig, SimNetwork


@pytest.fixture
def net():
    network = SimNetwork()
    network.add_host("a")
    network.add_host("b")
    network.add_host("c")
    return network


class TestHostManagement:
    def test_add_and_query_host(self, net):
        assert net.has_host("a")
        assert not net.has_host("zzz")

    def test_duplicate_host_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_host("a")

    def test_remove_host(self, net):
        net.remove_host("a")
        assert not net.has_host("a")

    def test_remove_unknown_host_rejected(self, net):
        with pytest.raises(NetworkError):
            net.remove_host("zzz")

    def test_hosts_returns_copy(self, net):
        hosts = net.hosts
        hosts.add("evil")
        assert not net.has_host("evil")


class TestTransferPricing:
    def test_transfer_duration_formula(self, net):
        cfg = net.config
        duration = net.transfer("a", "b", 1_000_000)
        expected = (
            cfg.latency_s
            + cfg.per_message_overhead_s
            + 1_000_000 / cfg.bandwidth_bytes_per_s
        )
        assert duration == pytest.approx(expected)

    def test_more_messages_cost_more(self, net):
        single = net.transfer("a", "b", 1000, messages=1)
        many = net.transfer("a", "b", 1000, messages=10)
        assert many > single

    def test_loopback_is_cheap(self, net):
        remote = net.transfer("a", "b", 10_000_000)
        local = net.transfer("a", "a", 10_000_000)
        assert local < remote

    def test_zero_bytes_costs_latency_only(self, net):
        duration = net.transfer("a", "b", 0)
        assert duration == pytest.approx(
            net.config.latency_s + net.config.per_message_overhead_s
        )

    def test_negative_bytes_rejected(self, net):
        with pytest.raises(NetworkError):
            net.transfer("a", "b", -1)

    def test_zero_messages_rejected(self, net):
        with pytest.raises(NetworkError):
            net.transfer("a", "b", 10, messages=0)

    def test_unknown_hosts_rejected(self, net):
        with pytest.raises(NetworkError):
            net.transfer("a", "zzz", 10)
        with pytest.raises(NetworkError):
            net.transfer("zzz", "a", 10)

    def test_broadcast_is_parallel_max(self, net):
        single = net.transfer("a", "b", 5000)
        duration = net.broadcast("a", ["b", "c"], 5000)
        assert duration == pytest.approx(single)


class TestPartitions:
    def test_partitioned_host_unreachable(self, net):
        net.partition("b")
        with pytest.raises(NetworkError):
            net.transfer("a", "b", 10)
        with pytest.raises(NetworkError):
            net.transfer("b", "a", 10)

    def test_heal_restores_connectivity(self, net):
        net.partition("b")
        net.heal("b")
        assert net.transfer("a", "b", 10) > 0

    def test_other_links_unaffected(self, net):
        net.partition("b")
        assert net.transfer("a", "c", 10) > 0

    def test_is_partitioned(self, net):
        assert not net.is_partitioned("b")
        net.partition("b")
        assert net.is_partitioned("b")


class TestStatistics:
    def test_totals_accumulate(self, net):
        net.transfer("a", "b", 100)
        net.transfer("a", "c", 200)
        assert net.total.bytes == 300
        assert net.total.messages == 2

    def test_loopback_counted_once_per_host(self, net):
        net.transfer("a", "a", 100)
        assert net.total.bytes == 100
        assert net.total.messages == 1

    def test_reset_stats(self, net):
        net.transfer("a", "b", 100)
        net.reset_stats()
        assert net.total.bytes == 0
        assert net.total.messages == 0


class TestNetworkConfig:
    def test_defaults_match_paper_environment(self):
        cfg = NetworkConfig()
        assert cfg.bandwidth_bytes_per_s == pytest.approx(100e6)

    def test_invalid_configs_rejected(self):
        with pytest.raises(NetworkError):
            NetworkConfig(latency_s=-1)
        with pytest.raises(NetworkError):
            NetworkConfig(bandwidth_bytes_per_s=0)
        with pytest.raises(NetworkError):
            NetworkConfig(per_message_overhead_s=-0.1)
        with pytest.raises(NetworkError):
            NetworkConfig(loopback_bandwidth_bytes_per_s=0)
