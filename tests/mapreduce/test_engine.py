"""Tests for the MapReduce engine."""

import pytest

from repro.errors import MapReduceError
from repro.mapreduce import (
    Hdfs,
    InputSplit,
    MapReduceConfig,
    MapReduceEngine,
    MapReduceJob,
    SplitData,
)
from repro.sim import SimNetwork


def make_cluster(n=4, config=None):
    network = SimNetwork()
    hosts = [f"worker-{i}" for i in range(n)]
    for host in hosts:
        network.add_host(host)
    hdfs = Hdfs(network, block_size=10_000)
    for host in hosts:
        hdfs.register_datanode(host)
    engine = MapReduceEngine(hosts, network, hdfs, config)
    return engine, hosts


def word_splits(hosts, texts):
    splits = []
    for host, text in zip(hosts, texts):
        splits.append(
            InputSplit(
                host=host,
                fetch=lambda text=text: SplitData(records=text.split()),
            )
        )
    return splits


def word_count_job(hosts, texts, num_reducers=2, output_path=None):
    return MapReduceJob.per_record(
        name="wordcount",
        splits=word_splits(hosts, texts),
        map_fn=lambda word: [(word, 1)],
        reduce_fn=lambda word, counts: [(word, sum(counts))],
        num_reducers=num_reducers,
        output_path=output_path,
    )


class TestJobValidation:
    def test_empty_splits_rejected(self):
        with pytest.raises(MapReduceError):
            MapReduceJob.per_record("j", [], map_fn=lambda r: [])

    def test_zero_reducers_rejected(self):
        split = InputSplit("h", lambda: SplitData([]))
        with pytest.raises(MapReduceError):
            MapReduceJob.per_record("j", [split], map_fn=lambda r: [], num_reducers=0)

    def test_empty_cluster_rejected(self):
        with pytest.raises(MapReduceError):
            MapReduceEngine([], SimNetwork())


class TestWordCount:
    def test_correct_output(self):
        engine, hosts = make_cluster()
        job = word_count_job(hosts, ["a b a", "b c", "a", "c c c"])
        result = engine.run_job(job)
        counts = dict(result.records)
        assert counts == {"a": 3, "b": 2, "c": 4}

    def test_output_deterministic(self):
        outputs = []
        for _ in range(2):
            engine, hosts = make_cluster()
            job = word_count_job(hosts, ["a b a", "b c", "a", "c c c"])
            outputs.append(engine.run_job(job).records)
        assert outputs[0] == outputs[1]

    def test_task_counts(self):
        engine, hosts = make_cluster()
        result = engine.run_job(word_count_job(hosts, ["a", "b", "c", "d"]))
        assert result.map_tasks == 4
        assert result.reduce_tasks == 2

    def test_single_reducer(self):
        engine, hosts = make_cluster()
        job = word_count_job(hosts, ["a b", "c d", "e", "f"], num_reducers=1)
        result = engine.run_job(job)
        assert len(result.records) == 6
        # Sorted reduce keys -> deterministic global order.
        assert [word for word, _ in result.records] == sorted(
            word for word, _ in result.records
        )


class TestMapOnlyJobs:
    def test_map_only_skips_shuffle(self):
        engine, hosts = make_cluster()
        job = MapReduceJob.per_record(
            name="filter",
            splits=word_splits(hosts, ["1 22 333", "4444", "5", "66"]),
            map_fn=lambda word: [(None, word)] if len(word) > 1 else [],
        )
        result = engine.run_job(job)
        assert sorted(result.records) == ["22", "333", "4444", "66"]
        assert result.timings.shuffle_s == 0.0
        assert result.timings.reduce_s == 0.0
        assert result.bytes_shuffled == 0


class TestCostModel:
    def test_startup_cost_dominates_small_jobs(self):
        config = MapReduceConfig(job_startup_s=12.0)
        engine, hosts = make_cluster(config=config)
        result = engine.run_job(word_count_job(hosts, ["a", "b", "c", "d"]))
        assert result.timings.startup_s >= 12.0
        assert result.timings.startup_s > result.timings.map_s

    def test_shuffle_includes_notification_delay(self):
        config = MapReduceConfig(shuffle_notification_delay_s=1.0)
        engine, hosts = make_cluster(config=config)
        result = engine.run_job(word_count_job(hosts, ["a", "b", "c", "d"]))
        assert result.timings.shuffle_s >= 1.0

    def test_more_data_longer_map_phase(self):
        engine, hosts = make_cluster()
        small = engine.run_job(word_count_job(hosts, ["a"] * 4))
        engine2, hosts2 = make_cluster()
        big = engine2.run_job(word_count_job(hosts2, ["a " * 5000] * 4))
        assert big.timings.map_s > small.timings.map_s

    def test_local_seconds_charged_to_map(self):
        engine, hosts = make_cluster()
        splits = [
            InputSplit(hosts[0], lambda: SplitData(records=["a"], local_seconds=2.5))
        ]
        job = MapReduceJob.per_record("j", splits, map_fn=lambda r: [(r, 1)],
                           reduce_fn=lambda k, vs: [(k, len(vs))])
        result = engine.run_job(job)
        assert result.timings.map_s >= 2.5

    def test_parallel_hosts_take_max_not_sum(self):
        engine, hosts = make_cluster()
        splits = [
            InputSplit(host, lambda: SplitData(records=[], local_seconds=3.0))
            for host in hosts
        ]
        job = MapReduceJob.per_record("j", splits, map_fn=lambda r: [])
        result = engine.run_job(job)
        assert result.timings.map_s == pytest.approx(3.0)

    def test_two_splits_same_host_serialize(self):
        engine, hosts = make_cluster()
        splits = [
            InputSplit(hosts[0], lambda: SplitData(records=[], local_seconds=3.0))
            for _ in range(2)
        ]
        job = MapReduceJob.per_record("j", splits, map_fn=lambda r: [])
        result = engine.run_job(job)
        assert result.timings.map_s == pytest.approx(6.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(MapReduceError):
            MapReduceConfig(job_startup_s=-1)
        with pytest.raises(MapReduceError):
            MapReduceConfig(map_slots_per_host=0)


class TestHdfsOutput:
    def test_output_written_to_hdfs(self):
        engine, hosts = make_cluster()
        job = word_count_job(hosts, ["a b", "a", "b", "c"], output_path="/out")
        result = engine.run_job(job)
        assert engine.hdfs.exists("/out")
        assert sorted(engine.hdfs.file("/out").records) == sorted(result.records)
        assert result.timings.hdfs_write_s > 0

    def test_output_without_hdfs_rejected(self):
        network = SimNetwork()
        network.add_host("w")
        engine = MapReduceEngine(["w"], network, hdfs=None)
        job = MapReduceJob.per_record(
            "j",
            [InputSplit("w", lambda: SplitData(records=["a"]))],
            map_fn=lambda r: [(r, 1)],
            reduce_fn=lambda k, vs: [k],
            output_path="/out",
        )
        with pytest.raises(MapReduceError):
            engine.run_job(job)


class TestJobChains:
    def test_chain_runs_sequentially(self):
        engine, hosts = make_cluster()
        first = word_count_job(hosts, ["a b", "a", "b", "c"], output_path="/stage1")

        def second_splits():
            def fetch():
                records, seconds = engine.hdfs.read("/stage1", hosts[0])
                return SplitData(records=records, local_seconds=seconds)

            return [InputSplit(hosts[0], fetch)]

        results = [engine.run_job(first)]
        second = MapReduceJob.per_record(
            name="total",
            splits=second_splits(),
            map_fn=lambda record: [("total", record[1])],
            reduce_fn=lambda key, values: [(key, sum(values))],
        )
        results.append(engine.run_job(second))
        assert results[1].records == [("total", 5)]
        total_duration = sum(result.duration_s for result in results)
        # Two jobs pay the startup cost twice.
        assert total_duration >= 2 * engine.config.job_startup_s
