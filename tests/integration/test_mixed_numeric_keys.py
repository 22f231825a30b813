"""Keys that compare equal but differ in numeric type, on every engine.

SQL says ``1 = 1.0``; Python's dicts agree.  Anything that places a key by
its ``repr`` — the bloom filter, the shuffle partitioner — must agree too, or
an INTEGER column joined to a FLOAT column silently loses rows (it did: 0 of
20 through the bloom join, 8 of 20 through MapReduce).
"""

import pytest

from repro.core import BestPeerNetwork
from repro.hadoopdb import HadoopDbCluster
from repro.plan.driver import DistributedPlanDriver, LocalResult
from repro.plan.sms import SmsPlanner
from repro.sqlengine import Column, ColumnType, Database, TableSchema

NUM_NODES = 3
A = TableSchema(
    "a", [Column("id", ColumnType.INTEGER), Column("v", ColumnType.FLOAT)]
)
B = TableSchema(
    "b", [Column("fid", ColumnType.FLOAT), Column("w", ColumnType.FLOAT)]
)
SCHEMAS = {"a": A, "b": B}
JOIN = "SELECT a.id, b.w FROM a, b WHERE a.id = b.fid"


def partition(node):
    """30 ``a`` rows, 20 matching ``b`` rows (key 0 spelled ``-0.0``),
    spread so that matching keys mostly live on different nodes."""
    return {
        "a": [(key, key * 0.5) for key in range(node, 30, NUM_NODES)],
        "b": [
            (float(key) if key else -0.0, key * 2.0)
            for key in range(20)
            if (key * 7) % NUM_NODES == node
        ],
    }


@pytest.fixture(scope="module")
def expected():
    oracle = Database()
    for schema in SCHEMAS.values():
        oracle.create_table(schema)
    for node in range(NUM_NODES):
        for table, rows in partition(node).items():
            oracle.table(table).insert_many(rows)
    rows = sorted(oracle.execute(JOIN).rows)
    assert len(rows) == 20
    return rows


@pytest.fixture(scope="module")
def network():
    net = BestPeerNetwork(SCHEMAS, {})
    for node in range(NUM_NODES):
        net.add_peer(f"p{node}")
        net.load_peer(f"p{node}", partition(node))
    return net


@pytest.fixture(scope="module")
def cluster():
    cluster = HadoopDbCluster(NUM_NODES)
    cluster.create_tables(SCHEMAS.values())
    for node in range(NUM_NODES):
        cluster.load_worker(node, partition(node))
    return cluster


class TestIntegerJoinedToFloat:
    @pytest.mark.parametrize("engine", ["basic", "parallel", "mapreduce"])
    def test_bestpeer_engines_return_every_match(self, network, expected, engine):
        execution = network.execute(JOIN, engine=engine)
        assert sorted(execution.records) == expected
        if engine == "basic":
            assert execution.bloom_joins == 1  # through the filter, not around it

    def test_hadoopdb_returns_every_match(self, cluster, expected):
        assert sorted(cluster.execute(JOIN).records) == expected


def test_group_key_column_mixing_int_and_float_is_one_group_per_value():
    """Workers whose local column types drifted apart (INTEGER here, FLOAT
    there) feed one GROUP BY ``2`` and ``2.0``: still one group."""
    cluster = HadoopDbCluster(2)
    rows = [(key % 3, float(key)) for key in range(12)]
    for host, kind in zip(cluster.workers, (ColumnType.INTEGER, ColumnType.FLOAT)):
        schema = TableSchema("t", [Column("g", kind), Column("v", ColumnType.FLOAT)])
        cluster.databases[host].create_table(schema).insert_many(rows)
    # COUNT(DISTINCT) cannot be merged from partials, so raw rows shuffle.
    sql = "SELECT g, COUNT(DISTINCT v), SUM(v) FROM t GROUP BY g"
    plan = SmsPlanner({"t": schema}).compile(sql)
    driver = DistributedPlanDriver(
        cluster.engine,
        cluster.workers,
        lambda host, fragment: LocalResult(
            cluster.databases[host].execute(fragment).batch, 0.0
        ),
    )
    records = driver.run(plan, "mixed").records
    assert sorted(records) == [
        (g, 4, 2.0 * sum(v for key, v in rows if key == g)) for g in range(3)
    ]
