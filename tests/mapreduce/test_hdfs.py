"""Tests for the simulated HDFS."""

import pytest

from repro.errors import HdfsError
from repro.mapreduce import Hdfs
from repro.sim import SimNetwork


@pytest.fixture
def net():
    network = SimNetwork()
    for i in range(4):
        network.add_host(f"worker-{i}")
    return network


@pytest.fixture
def hdfs(net):
    fs = Hdfs(net, block_size=1000, replication=3)
    for i in range(4):
        fs.register_datanode(f"worker-{i}")
    return fs


class TestConfig:
    def test_defaults_match_paper(self, net):
        fs = Hdfs(net)
        assert fs.block_size == 256 * 1024 * 1024
        assert fs.replication == 3

    def test_invalid_params_rejected(self, net):
        with pytest.raises(HdfsError):
            Hdfs(net, block_size=0)
        with pytest.raises(HdfsError):
            Hdfs(net, replication=0)


class TestDatanodes:
    def test_register(self, hdfs):
        assert len(hdfs.datanodes) == 4

    def test_double_register_rejected(self, hdfs):
        with pytest.raises(HdfsError):
            hdfs.register_datanode("worker-0")

    def test_unknown_host_rejected(self, hdfs):
        with pytest.raises(HdfsError):
            hdfs.register_datanode("ghost")


class TestWrite:
    def test_write_and_read_roundtrip(self, hdfs):
        records = [(i, f"rec-{i}") for i in range(10)]
        hdfs.write("/out/part-0", records, 500, "worker-0")
        read, _ = hdfs.read("/out/part-0", "worker-1")
        assert read == records

    def test_widths_and_sizes_are_kept_across_blocks(self, hdfs):
        records = list(range(100))
        hdfs.write(
            "/big", records, 800, "worker-0", list(range(100)), [8] * 100
        )
        stored = hdfs.file("/big")
        assert len(stored.blocks) == 1 and stored.sizes == [8] * 100
        hdfs.write("/huge", records, 3500, "worker-0", list(range(100)), [35] * 100)
        stored = hdfs.file("/huge")
        assert len(stored.blocks) == 4
        assert stored.widths == list(range(100)) and stored.sizes == [35] * 100
        # built once per file, not once per reading worker
        assert stored.widths is stored.widths and stored.sizes is stored.sizes

    def test_unknown_widths_or_sizes_are_none(self, hdfs):
        hdfs.write("/f", [1, 2], 16, "worker-0")
        assert hdfs.file("/f").widths is None and hdfs.file("/f").sizes is None

    @pytest.mark.parametrize(
        "widths, sizes", [([1], None), ([1, 1, 1], None), (None, [8]), (None, [])]
    )
    def test_widths_or_sizes_not_one_per_record_rejected(self, hdfs, widths, sizes):
        with pytest.raises(HdfsError, match="for 2 records"):
            hdfs.write("/f", [1, 2], 16, "worker-0", widths, sizes)
        assert not hdfs.exists("/f")

    def test_sizes_that_do_not_sum_to_the_price_rejected(self, hdfs):
        with pytest.raises(HdfsError, match="sum to 15"):
            hdfs.write("/f", [1, 2], 16, "worker-0", None, [8, 7])

    def test_write_splits_into_blocks(self, hdfs):
        hdfs.write("/big", list(range(100)), 3500, "worker-0")
        hdfs_file = hdfs.file("/big")
        assert len(hdfs_file.blocks) == 4  # ceil(3500 / 1000)
        assert hdfs_file.size_bytes == 3500
        assert hdfs_file.records == list(range(100))

    def test_blocks_replicated(self, hdfs):
        hdfs.write("/f", [1], 100, "worker-0")
        block = hdfs.file("/f").blocks[0]
        assert len(block.replica_hosts) == 3
        assert len(set(block.replica_hosts)) == 3

    def test_first_replica_on_writer(self, hdfs):
        hdfs.write("/f", [1], 100, "worker-2")
        assert hdfs.file("/f").blocks[0].replica_hosts[0] == "worker-2"

    def test_replication_capped_by_cluster_size(self, net):
        fs = Hdfs(net, replication=10)
        fs.register_datanode("worker-0")
        fs.register_datanode("worker-1")
        fs.write("/f", [1], 100, "worker-0")
        assert len(fs.file("/f").blocks[0].replica_hosts) == 2

    def test_write_once(self, hdfs):
        hdfs.write("/f", [1], 100, "worker-0")
        with pytest.raises(HdfsError):
            hdfs.write("/f", [2], 100, "worker-0")

    def test_write_without_datanodes_rejected(self, net):
        with pytest.raises(HdfsError):
            Hdfs(net).write("/f", [1], 100, "worker-0")

    def test_write_costs_network_time(self, hdfs):
        duration = hdfs.write("/f", [1], 10_000_000, "worker-0")
        assert duration > 0

    def test_empty_file(self, hdfs):
        hdfs.write("/empty", [], 0, "worker-0")
        records, _ = hdfs.read("/empty", "worker-1")
        assert records == []


class TestRead:
    def test_local_read_cheaper_than_remote(self, hdfs):
        hdfs.write("/f", list(range(100)), 10_000_000, "worker-0")
        _, local = hdfs.read("/f", "worker-0")
        # worker-3 holds no replica of a 1-block file written at worker-0
        replica_hosts = hdfs.file("/f").blocks[0].replica_hosts
        outsider = next(
            f"worker-{i}" for i in range(4) if f"worker-{i}" not in replica_hosts
        )
        _, remote = hdfs.read("/f", outsider)
        assert local < remote

    def test_read_missing_file(self, hdfs):
        with pytest.raises(HdfsError):
            hdfs.read("/nope", "worker-0")


class TestNamespace:
    def test_exists_and_delete(self, hdfs):
        hdfs.write("/f", [1], 10, "worker-0")
        assert hdfs.exists("/f")
        hdfs.delete("/f")
        assert not hdfs.exists("/f")

    def test_delete_missing(self, hdfs):
        with pytest.raises(HdfsError):
            hdfs.delete("/nope")

    def test_list_files_sorted(self, hdfs):
        hdfs.write("/b", [1], 10, "worker-0")
        hdfs.write("/a", [1], 10, "worker-0")
        assert hdfs.list_files() == ["/a", "/b"]
