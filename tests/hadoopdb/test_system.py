"""End-to-end tests for the HadoopDB cluster.

Correctness oracle: load all workers' partitions into a single local
database and compare the distributed result against the local one.
"""

import pytest

from repro.errors import SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.mapreduce import MapReduceConfig
from repro.sqlengine import Database
from repro.tpch import (
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    TpchGenerator,
    create_tpch_tables,
)

NUM_WORKERS = 4


@pytest.fixture(scope="module")
def cluster():
    cluster = HadoopDbCluster(NUM_WORKERS)
    cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
    generator = TpchGenerator(seed=11)
    for index in range(NUM_WORKERS):
        cluster.load_worker(index, generator.generate_peer(index))
    return cluster


@pytest.fixture(scope="module")
def oracle():
    """A single database holding the union of all partitions."""
    db = Database()
    create_tpch_tables(db)
    generator = TpchGenerator(seed=11)
    for index in range(NUM_WORKERS):
        for table, rows in generator.generate_peer(index).items():
            if table in ("nation", "region") and index > 0:
                continue  # replicated dimension tables
            db.table(table).insert_many(rows)
    return db


def _sorted(rows):
    return sorted(rows, key=repr)


class TestCorrectness:
    def test_q1_matches_oracle(self, cluster, oracle):
        distributed = cluster.execute(Q1())
        local = oracle.execute(Q1())
        assert _sorted(distributed.records) == _sorted(local.rows)
        assert len(distributed) > 0

    def test_q2_matches_oracle(self, cluster, oracle):
        distributed = cluster.execute(Q2())
        local = oracle.execute(Q2())
        assert len(distributed.records) == 1
        assert distributed.records[0][0] == pytest.approx(local.scalar())

    def test_q3_matches_oracle(self, cluster, oracle):
        distributed = cluster.execute(Q3())
        local = oracle.execute(Q3())
        assert _sorted(distributed.records) == _sorted(local.rows)
        assert len(distributed) > 0

    def test_q4_matches_oracle(self, cluster, oracle):
        distributed = cluster.execute(Q4())
        local = oracle.execute(Q4())
        assert len(distributed.records) == len(local.rows)
        assert {row[0]: row[1] for row in distributed.records} == pytest.approx(
            {row[0]: row[1] for row in local.rows}
        )

    def test_q5_matches_oracle(self, cluster, oracle):
        distributed = cluster.execute(Q5())
        local = oracle.execute(Q5())
        assert len(distributed.records) == len(local.rows)
        for d_row, l_row in zip(distributed.records, local.rows):
            assert d_row[0] == l_row[0]
            assert d_row[1] == pytest.approx(l_row[1])

    def test_q5_ordered_descending(self, cluster):
        revenues = [row[1] for row in cluster.execute(Q5()).records]
        assert revenues == sorted(revenues, reverse=True)


class TestJobAccounting:
    def test_job_counts_match_paper(self, cluster):
        assert cluster.execute(Q1()).num_jobs == 1
        assert cluster.execute(Q2()).num_jobs == 1
        assert cluster.execute(Q3()).num_jobs == 1
        assert cluster.execute(Q4()).num_jobs == 2
        assert cluster.execute(Q5()).num_jobs == 4

    def test_startup_cost_floor(self, cluster):
        # Every query pays at least one job startup (~12 s).
        result = cluster.execute(Q1())
        assert result.duration_s >= cluster.engine.config.job_startup_s

    def test_multi_job_queries_cost_more(self, cluster):
        q1 = cluster.execute(Q1()).duration_s
        q5 = cluster.execute(Q5()).duration_s
        assert q5 > q1 + 2 * cluster.engine.config.job_startup_s


class TestConfiguration:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            HadoopDbCluster(0)

    def test_custom_mr_config_respected(self):
        config = MapReduceConfig(job_startup_s=99.0)
        cluster = HadoopDbCluster(2, mr_config=config)
        cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
        generator = TpchGenerator(seed=11, scale=0.2)
        for index in range(2):
            cluster.load_worker(index, generator.generate_peer(index))
        assert cluster.execute(Q1()).duration_s >= 99.0


class TestStageFilesAreDeleted:
    """A query's join-chain files are temporary: one HDFS serves the cluster's
    whole lifetime, so keeping them would grow it by every query."""

    FAILING_JOIN = (
        "SELECT c_custkey, l_orderkey FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "AND l_quantity / (c_nationkey - c_nationkey) > 1"
    )

    @staticmethod
    def build():
        cluster = HadoopDbCluster(NUM_WORKERS)
        cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
        generator = TpchGenerator(seed=11, scale=0.4)
        for index in range(NUM_WORKERS):
            cluster.load_worker(index, generator.generate_peer(index))
        return cluster

    def run(self, cluster):
        durations = []
        for sql in (Q3(), Q5(), self.FAILING_JOIN, Q3()):
            try:
                durations.append(cluster.execute(sql).duration_s)
            except SqlExecutionError as error:
                assert "division by zero" in str(error)
                durations.append(None)
        return durations

    def test_no_file_outlives_its_query_and_no_duration_moves(self):
        cleaned, keeping = self.build(), self.build()
        # The twin keeps every file: what the cluster did before.
        keeping.hdfs.delete = lambda path: None
        durations = self.run(cleaned)
        assert durations[2] is None  # the join chain failed part-way
        assert cleaned.hdfs.list_files() == []
        assert durations == self.run(keeping)
        assert keeping.hdfs.list_files()  # it would have leaked
