"""Tests for the simulated HDFS."""

import pytest

from repro.errors import HdfsError
from repro.mapreduce import Hdfs
from repro.sim import SimNetwork
from repro.sqlengine.batch import ColumnBatch


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


def column(values):
    """``values`` as a one-column batch."""
    return ColumnBatch(["n"], [list(values)], len(values))


class TestWrite:
    def test_write_and_read_roundtrip(self, hdfs):
        records = [(i, f"rec-{i}") for i in range(10)]
        hdfs.write("/out/part-0", ColumnBatch.from_rows(["i", "s"], records), 500, "worker-0")
        read, _ = hdfs.read("/out/part-0", "worker-1")
        assert read.rows == records

    def test_widths_and_sizes_are_kept_across_blocks(self, hdfs):
        values = list(range(100))
        hdfs.write("/big", ColumnBatch(["n"], [values], 100, sizes=[8] * 100), 800, "worker-0")
        stored, _ = hdfs.read("/big", "worker-0")
        assert len(hdfs.file("/big").blocks) == 1 and stored.known_sizes == [8] * 100
        # Stand-in widths and sizes, unlike the rows' own: carried, never measured.
        widths, sizes = list(range(100)), [35] * 100
        hdfs.write("/huge", ColumnBatch(["n"], [values], 100, widths, sizes), 3500, "worker-0")
        blocks = hdfs.file("/huge").blocks
        assert [block.batch.widths for block in blocks] == [
            widths[start : start + 25] for start in range(0, 100, 25)
        ]
        stored, _ = hdfs.read("/huge", "worker-0")
        assert stored.widths == widths and stored.known_sizes == sizes
        assert stored.vectors == [values]

    def test_unknown_widths_and_sizes_are_measured_from_the_rows(self, hdfs):
        hdfs.write("/f", column([1, 22]), 16, "worker-0")
        stored, _ = hdfs.read("/f", "worker-0")
        assert stored.known_sizes is None
        assert stored.widths == [4, 5] and stored.sizes == [8, 8]

    def test_write_splits_into_blocks(self, hdfs):
        hdfs.write("/big", column(range(100)), 3500, "worker-0")
        hdfs_file = hdfs.file("/big")
        assert len(hdfs_file.blocks) == 4  # ceil(3500 / 1000)
        assert [len(block.batch) for block in hdfs_file.blocks] == [25] * 4
        assert hdfs_file.size_bytes == 3500
        stored, _ = hdfs.read("/big", "worker-0")
        assert stored.vectors == [list(range(100))]

    def test_blocks_replicated(self, hdfs):
        hdfs.write("/f", column([1]), 100, "worker-0")
        block = hdfs.file("/f").blocks[0]
        assert len(block.replica_hosts) == 3
        assert len(set(block.replica_hosts)) == 3

    def test_first_replica_on_writer(self, hdfs):
        hdfs.write("/f", column([1]), 100, "worker-2")
        assert hdfs.file("/f").blocks[0].replica_hosts[0] == "worker-2"

    def test_replication_capped_by_cluster_size(self, net):
        fs = Hdfs(net, replication=10)
        fs.register_datanode("worker-0")
        fs.register_datanode("worker-1")
        fs.write("/f", column([1]), 100, "worker-0")
        assert len(fs.file("/f").blocks[0].replica_hosts) == 2

    def test_write_once(self, hdfs):
        hdfs.write("/f", column([1]), 100, "worker-0")
        with pytest.raises(HdfsError):
            hdfs.write("/f", column([2]), 100, "worker-0")

    def test_write_without_datanodes_rejected(self, net):
        with pytest.raises(HdfsError):
            Hdfs(net).write("/f", column([1]), 100, "worker-0")

    def test_write_costs_network_time(self, hdfs):
        duration = hdfs.write("/f", column([1]), 10_000_000, "worker-0")
        assert duration > 0

    def test_empty_file(self, hdfs):
        hdfs.write("/empty", column([]), 0, "worker-0")
        stored, _ = hdfs.read("/empty", "worker-1")
        assert len(stored) == 0 and stored.vectors == [[]]


class TestRead:
    def test_local_read_cheaper_than_remote(self, hdfs):
        hdfs.write("/f", column(range(100)), 10_000_000, "worker-0")
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
        hdfs.write("/f", column([1]), 10, "worker-0")
        assert hdfs.exists("/f")
        hdfs.delete("/f")
        assert not hdfs.exists("/f")

    def test_delete_missing(self, hdfs):
        with pytest.raises(HdfsError):
            hdfs.delete("/nope")

    def test_list_files_sorted(self, hdfs):
        hdfs.write("/b", column([1]), 10, "worker-0")
        hdfs.write("/a", column([1]), 10, "worker-0")
        assert hdfs.list_files() == ["/a", "/b"]
