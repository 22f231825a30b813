"""Edge-case tests for the MapReduce engine."""

import pytest

from repro.mapreduce import (
    Hdfs,
    InputSplit,
    MapReduceEngine,
    MapReduceJob,
    SplitData,
)
from repro.mapreduce.engine import records_byte_size
from repro.sim import SimNetwork
from repro.sqlengine.batch import ColumnBatch
from repro.sqlengine.types import value_byte_size


def records_of(records):
    """A per-record job's split: ``records`` as a batch of rows."""
    return ColumnBatch.from_rows((), records)


def make_engine(n=3):
    network = SimNetwork()
    hosts = [f"w{i}" for i in range(n)]
    for host in hosts:
        network.add_host(host)
    hdfs = Hdfs(network, block_size=10_000)
    for host in hosts:
        hdfs.register_datanode(host)
    return MapReduceEngine(hosts, network, hdfs), hosts


class TestReducerEdges:
    def test_more_reducers_than_keys(self):
        engine, hosts = make_engine()
        job = MapReduceJob.per_record(
            "j",
            [InputSplit(hosts[0], lambda: SplitData(records_of(["a", "a"])))],
            map_fn=lambda r: [(r, 1)],
            reduce_fn=lambda k, vs: [(k, len(vs))],
            num_reducers=16,
        )
        result = engine.run_job(job)
        assert result.records == [("a", 2)]
        assert result.reduce_tasks == 16

    def test_empty_input_with_reduce(self):
        engine, hosts = make_engine()
        job = MapReduceJob.per_record(
            "j",
            [InputSplit(hosts[0], lambda: SplitData(records_of([])))],
            map_fn=lambda r: [(r, 1)],
            reduce_fn=lambda k, vs: [(k, len(vs))],
        )
        result = engine.run_job(job)
        assert result.records == []
        assert result.bytes_shuffled == 0

    def test_map_emits_multiple_pairs(self):
        engine, hosts = make_engine()
        job = MapReduceJob.per_record(
            "j",
            [InputSplit(hosts[0], lambda: SplitData(records_of(["ab"])))],
            map_fn=lambda r: [(ch, 1) for ch in r],
            reduce_fn=lambda k, vs: [(k, sum(vs))],
        )
        result = engine.run_job(job)
        assert sorted(result.records) == [("a", 1), ("b", 1)]

    def test_none_keys_shuffle(self):
        engine, hosts = make_engine()
        job = MapReduceJob.per_record(
            "j",
            [InputSplit(hosts[0], lambda: SplitData(records_of([1, 2, 3])))],
            map_fn=lambda r: [(None, r)],
            reduce_fn=lambda k, vs: [sum(vs)],
            num_reducers=2,
        )
        result = engine.run_job(job)
        assert result.records == [6]

    def test_mixed_key_types_deterministic(self):
        engine, hosts = make_engine()
        job = MapReduceJob.per_record(
            "j",
            [InputSplit(hosts[0], lambda: SplitData(records_of([1, "1", (1,)])))],
            map_fn=lambda r: [(r, 1)],
            reduce_fn=lambda k, vs: [repr(k)],
            num_reducers=1,
        )
        result = engine.run_job(job)
        assert len(result.records) == 3


class TestRecordsByteSize:
    def test_tuples_and_scalars(self):
        assert records_byte_size([(1, "ab")]) == 8 + 6
        assert records_byte_size(["ab"]) == 6
        assert records_byte_size([]) == 0

    def test_none_values(self):
        assert records_byte_size([(None,)]) == 1


class TestShuffleAccounting:
    def test_bytes_shuffled_reported(self):
        engine, hosts = make_engine()
        job = MapReduceJob.per_record(
            "j",
            [
                InputSplit(host, lambda: SplitData(records_of(["k"] * 10)))
                for host in hosts
            ],
            map_fn=lambda r: [(r, 1)],
            reduce_fn=lambda k, vs: [(k, sum(vs))],
        )
        result = engine.run_job(job)
        assert result.bytes_shuffled > 0
        # 30 pairs, each key "k" (5 bytes) + int value (8 bytes).
        assert result.bytes_shuffled == 30 * (5 + 8)

    @pytest.mark.parametrize("hosts_count,num_reducers", [(3, 3), (2, 5)])
    def test_pricing_calls_do_not_grow_with_the_input(
        self, monkeypatch, hosts_count, num_reducers
    ):
        """A lane is priced from its values' sizes: ``records_byte_size``
        runs once per HDFS file, never per lane or per record."""
        import repro.mapreduce.engine as engine_module

        def pricing_calls(rows_per_table):
            engine, hosts = make_engine(hosts_count)
            calls = []
            monkeypatch.setattr(
                engine_module,
                "records_byte_size",
                lambda records: calls.append(len(records)) or records_byte_size(records),
            )
            left = [("L", (k, f"name-{k}")) for k in range(rows_per_table)]
            right = [("R", (k, k * 0.5, None)) for k in range(rows_per_table)]
            job = MapReduceJob.per_record(
                "join",
                [
                    InputSplit(host, lambda rows=rows[i::hosts_count]: SplitData(records_of(rows)))
                    for rows in (left, right)
                    for i, host in enumerate(hosts)
                ],
                map_fn=lambda tagged: [(tagged[1][0], tagged)],
                reduce_fn=lambda key, tagged: [
                    l + r
                    for tl, l in tagged if tl == "L"
                    for tr, r in tagged if tr == "R"
                ],
                num_reducers=num_reducers,
                output_path=f"/out-{rows_per_table}",
            )
            result = engine.run_job(job)
            assert len(result.records) == rows_per_table
            assert result.bytes_shuffled == sum(
                value_byte_size(row[0]) + value_byte_size(tag) + value_byte_size(row)
                for tag, row in left + right
            )
            return calls

        assert pricing_calls(50) == [50]  # the output file, once
        assert pricing_calls(1000) == [1000]
