"""Distributed execution of the full SQL surface, checked against an oracle.

The per-figure tests cover the five benchmark queries; these cover the rest
of the dialect (HAVING, ORDER BY + LIMIT, DISTINCT, expressions, CASE) on
both systems and all BestPeer++ engines.
"""

import pytest

from repro.core import BestPeerNetwork
from repro.errors import SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.sqlengine import Column, ColumnType, Database, TableSchema
from repro.tpch import (
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    TpchGenerator,
    create_tpch_tables,
)

NUM_NODES = 3
SEED = 29


@pytest.fixture(scope="module")
def oracle():
    db = Database()
    create_tpch_tables(db)
    generator = TpchGenerator(seed=SEED)
    for index in range(NUM_NODES):
        for table, rows in generator.generate_peer(index).items():
            if table in ("nation", "region") and index > 0:
                continue
            db.table(table).insert_many(rows)
    return db


@pytest.fixture(scope="module")
def network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=SEED)
    for index in range(NUM_NODES):
        net.add_peer(f"corp-{index}")
        net.load_peer(f"corp-{index}", generator.generate_peer(index))
    return net


@pytest.fixture(scope="module")
def hadoopdb():
    cluster = HadoopDbCluster(NUM_NODES)
    cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
    generator = TpchGenerator(seed=SEED)
    for index in range(NUM_NODES):
        cluster.load_worker(index, generator.generate_peer(index))
    return cluster


QUERIES = {
    "having": (
        "SELECT l_suppkey, COUNT(*) FROM lineitem "
        "GROUP BY l_suppkey HAVING COUNT(*) > 100"
    ),
    "order_limit": (
        "SELECT o_orderkey, o_totalprice FROM orders "
        "ORDER BY o_totalprice DESC LIMIT 7"
    ),
    "distinct": "SELECT DISTINCT l_returnflag FROM lineitem",
    "expression_projection": (
        "SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS net "
        "FROM lineitem WHERE l_shipdate > DATE '1998-06-01'"
    ),
    "avg_group": (
        "SELECT o_orderstatus, AVG(o_totalprice) FROM orders "
        "GROUP BY o_orderstatus"
    ),
    "join_order_limit": (
        "SELECT o_orderkey, l_linenumber FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_totalprice > 300000 "
        "ORDER BY o_orderkey, l_linenumber LIMIT 10"
    ),
    "case_aggregate": (
        "SELECT SUM(CASE WHEN l_discount > 0.05 THEN 1 ELSE 0 END) "
        "FROM lineitem"
    ),
}


def _rounded(rows):
    return [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]


def _norm(rows):
    return sorted(_rounded(rows), key=repr)


class TestBestPeerEngines:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("engine", ["basic", "mapreduce"])
    def test_engine_matches_oracle(self, network, oracle, name, engine):
        sql = QUERIES[name]
        execution = network.execute(sql, engine=engine)
        expected = oracle.execute(sql)
        if "ORDER BY" in sql:
            # Order-sensitive comparison for ordered queries.
            assert _rounded(execution.records) == _rounded(expected.rows)
        else:
            assert _norm(execution.records) == _norm(expected.rows)

    @pytest.mark.parametrize(
        "name", ["having", "order_limit", "join_order_limit", "avg_group"]
    )
    def test_parallel_engine_matches_oracle(self, network, oracle, name):
        sql = QUERIES[name]
        execution = network.execute(sql, engine="parallel")
        expected = oracle.execute(sql)
        if "ORDER BY" in sql:
            assert len(execution.records) == len(expected.rows)
            for got, want in zip(execution.records, expected.rows):
                assert got[0] == want[0]
        else:
            assert _norm(execution.records) == _norm(expected.rows)


class TestHadoopDb:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_matches_oracle(self, hadoopdb, oracle, name):
        sql = QUERIES[name]
        result = hadoopdb.execute(sql)
        expected = oracle.execute(sql)
        if "ORDER BY" in sql:
            assert _rounded(result.records) == _rounded(expected.rows)
        else:
            assert _norm(result.records) == _norm(expected.rows)


# ----------------------------------------------------------------------
# ORDER BY keys the select list drops (the merge step's sort)
# ----------------------------------------------------------------------
ORDER_SCHEMA = TableSchema(
    "a",
    [
        Column("id", ColumnType.INTEGER),
        Column("g", ColumnType.INTEGER),
        Column("v", ColumnType.FLOAT),
    ],
)
ORDER_ROWS = [(k, k % 3, float(k * 7 % 5)) for k in range(18)]
ORDER_ROWS[4] = (4, 1, None)  # a NULL key sorts first

ORDER_QUERIES = [
    "SELECT id FROM a ORDER BY v, id",
    "SELECT id FROM a ORDER BY v DESC, id",
    "SELECT id FROM a ORDER BY id, v",
    "SELECT id, v FROM a ORDER BY v, id",
    "SELECT id FROM a ORDER BY v, id LIMIT 5",
    "SELECT DISTINCT g FROM a ORDER BY v, g",
]


@pytest.fixture(scope="module")
def order_systems():
    local = Database()
    local.create_table(ORDER_SCHEMA)
    local.table("a").insert_many(ORDER_ROWS)
    net = BestPeerNetwork({"a": ORDER_SCHEMA}, {})
    cluster = HadoopDbCluster(NUM_NODES)
    cluster.create_tables([ORDER_SCHEMA], {})
    for index in range(NUM_NODES):
        share = {"a": ORDER_ROWS[index::NUM_NODES]}
        net.add_peer(f"p{index}")
        net.load_peer(f"p{index}", share)
        cluster.load_worker(index, share)
    return local, net, cluster


class TestOrderByDroppedKey:
    """A leading key outside the projection must not lose the later keys."""

    @pytest.mark.parametrize("sql", ORDER_QUERIES)
    @pytest.mark.parametrize("engine", ["basic", "parallel", "mapreduce"])
    def test_engine_keeps_local_order(self, order_systems, sql, engine):
        local, net, _ = order_systems
        assert net.execute(sql, engine=engine).records == local.execute(sql).rows

    @pytest.mark.parametrize("sql", ORDER_QUERIES)
    def test_hadoopdb_keeps_local_order(self, order_systems, sql):
        local, _, cluster = order_systems
        assert cluster.execute(sql).records == local.execute(sql).rows


# ----------------------------------------------------------------------
# Where the sort runs: decided by name resolution, as the local planner does
# ----------------------------------------------------------------------
ALIAS_SCHEMA = TableSchema(
    "a",
    [
        Column("id", ColumnType.INTEGER),
        Column("v", ColumnType.FLOAT),
        Column("s", ColumnType.TEXT),
    ],
)
ALIAS_ROWS = [(1, 3.0, "x"), (2, 1.0, "y"), (3, 2.0, "z")]


@pytest.fixture(scope="module")
def alias_systems():
    local = Database()
    local.create_table(ALIAS_SCHEMA).insert_many(ALIAS_ROWS)
    net = BestPeerNetwork({"a": ALIAS_SCHEMA}, {})
    cluster = HadoopDbCluster(NUM_NODES)
    cluster.create_tables([ALIAS_SCHEMA], {})
    for index in range(NUM_NODES):
        share = {"a": ALIAS_ROWS[index::NUM_NODES]}
        net.add_peer(f"p{index}")
        net.load_peer(f"p{index}", share)
        cluster.load_worker(index, share)
    return local, net, cluster


class TestOrderByAlias:
    """``v`` names the projected ``s``, so ``ORDER BY v * 2`` sorts the
    projected rows and fails on text; it must never quietly sort by the
    base column ``a.v`` instead."""

    SQL = "SELECT id, s AS v FROM a ORDER BY v * 2"

    def expected_error(self, local):
        with pytest.raises(SqlExecutionError) as error:
            local.execute(self.SQL)
        assert str(error.value) == "non-numeric arithmetic: 'x' * 2"
        return str(error.value)

    @pytest.mark.parametrize("engine", ["basic", "parallel", "mapreduce"])
    def test_engine_raises_what_the_local_database_raises(
        self, alias_systems, engine
    ):
        local, net, _ = alias_systems
        with pytest.raises(SqlExecutionError) as error:
            net.execute(self.SQL, engine=engine)
        assert str(error.value) == self.expected_error(local)

    def test_hadoopdb_raises_what_the_local_database_raises(self, alias_systems):
        local, _, cluster = alias_systems
        with pytest.raises(SqlExecutionError) as error:
            cluster.execute(self.SQL)
        assert str(error.value) == self.expected_error(local)

    def test_an_alias_key_that_evaluates_sorts_the_projected_rows(
        self, alias_systems
    ):
        local, net, cluster = alias_systems
        sql = "SELECT id, s AS v FROM a ORDER BY v DESC"
        expected = local.execute(sql).rows
        assert expected == [(3, "z"), (2, "y"), (1, "x")]
        for engine in ("basic", "parallel", "mapreduce"):
            assert net.execute(sql, engine=engine).records == expected
        assert cluster.execute(sql).records == expected
