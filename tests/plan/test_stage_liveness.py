"""A join stage's output keeps only the columns a later step reads.

The plan driver prunes each stage file to the columns that a later stage's
key or residual, the aggregate, or the select list, HAVING and ORDER BY
read.  Queries that read a column late — a residual two stages on, a sort
on a column the select list drops, a star, an alias that shares a column's
bare name — must still return the interpreter's rows, on HadoopDB and on
BestPeer++'s MapReduce engine.  A driver that kept only the join keys
fails every one of them.
"""

import pytest

from repro.core import BestPeerNetwork
from repro.errors import SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.mapreduce import Hdfs
from repro.sqlengine import Column, ColumnType, Database, TableSchema
from repro.sqlengine.expr import RowLayout

NUM_NODES = 3
A = TableSchema("a", [
    Column("id", ColumnType.INTEGER),
    Column("v", ColumnType.FLOAT),
    Column("s", ColumnType.TEXT),
])
B = TableSchema("b", [
    Column("fid", ColumnType.INTEGER),
    Column("w", ColumnType.FLOAT),
    Column("g", ColumnType.INTEGER),
])
C = TableSchema("c", [
    Column("gid", ColumnType.INTEGER),
    Column("t", ColumnType.TEXT),
    Column("v", ColumnType.FLOAT),
])
SCHEMAS = {"a": A, "b": B, "c": C}
ROWS = {
    "a": [(k, k * 0.5, None if k % 3 == 0 else f"s{k % 4}") for k in range(1, 25)],
    "b": [(k, float(k % 5), k % 4) for k in range(3, 31)],
    "c": [(g, f"t{g}", g * 3.0) for g in range(4)],
}

#: (sql, whether its ORDER BY fixes the row order)
QUERIES = [
    # a residual two stages after its base column's table
    ("SELECT a.id, c.t FROM a, b, c WHERE a.id = b.fid AND b.g = c.gid "
     "AND a.v > c.v", False),
    # ORDER BY a join column the select list drops
    ("SELECT a.s, b.w FROM a, b WHERE a.id = b.fid ORDER BY b.fid DESC", True),
    ("SELECT a.s FROM a, b, c WHERE a.id = b.fid AND b.g = c.gid "
     "ORDER BY c.v, a.id LIMIT 7", True),
    ("SELECT b.g, COUNT(*), SUM(a.v) FROM a, b WHERE a.id = b.fid "
     "GROUP BY b.g HAVING SUM(a.v) > 20", False),
    ("SELECT * FROM a, b WHERE a.id = b.fid", False),
    ("SELECT b.*, a.s FROM a, b, c WHERE a.id = b.fid AND b.g = c.gid", False),
    ("SELECT DISTINCT b.g, c.t FROM a, b, c WHERE a.id = b.fid AND b.g = c.gid",
     False),
    # an ORDER BY alias that is also a column's bare name
    ("SELECT a.id, b.w AS v FROM a, b WHERE a.id = b.fid ORDER BY v, a.id", True),
    ("SELECT a.v AS w, a.id FROM a, b WHERE a.id = b.fid ORDER BY w DESC, a.id",
     True),
    ("SELECT COUNT(*) FROM a, b, c WHERE a.id = b.fid AND b.g = c.gid", False),
]


def spread(node):
    return {table: rows[node::NUM_NODES] for table, rows in ROWS.items()}


@pytest.fixture(scope="module")
def oracle():
    database = Database(execution_mode="interpreted")
    for table, schema in SCHEMAS.items():
        database.create_table(schema).insert_many(ROWS[table])
    return database


@pytest.fixture(scope="module")
def cluster():
    cluster = HadoopDbCluster(NUM_NODES)
    cluster.create_tables(SCHEMAS.values())
    for node in range(NUM_NODES):
        cluster.load_worker(node, spread(node))
    return cluster


@pytest.fixture(scope="module")
def network():
    net = BestPeerNetwork(SCHEMAS, {})
    for node in range(NUM_NODES):
        net.add_peer(f"p{node}")
        net.load_peer(f"p{node}", spread(node))
    return net


def comparable(rows, ordered):
    return list(rows) if ordered else sorted(rows, key=repr)


@pytest.mark.parametrize("sql, ordered", QUERIES)
def test_hadoopdb_returns_the_interpreters_rows(cluster, oracle, sql, ordered):
    want = oracle.execute(sql).rows
    assert want
    got = cluster.execute(sql).records
    assert comparable(got, ordered) == comparable(want, ordered)


@pytest.mark.parametrize("sql, ordered", QUERIES)
def test_bestpeer_mapreduce_returns_the_interpreters_rows(
    network, oracle, sql, ordered
):
    want = oracle.execute(sql).rows
    got = network.execute(sql, engine="mapreduce").records
    assert comparable(got, ordered) == comparable(want, ordered)


def test_a_stage_file_keeps_what_later_steps_read(monkeypatch, cluster):
    written = {}
    write = Hdfs.write

    def recording(hdfs, path, batch, *args):
        written[path.rsplit("/", 1)[-1]] = batch.columns
        return write(hdfs, path, batch, *args)

    monkeypatch.setattr(Hdfs, "write", recording)
    cluster.execute(QUERIES[0][0])
    # a.v waits for the second stage's residual; b.w and b.fid are read
    # by nothing after the first stage, c.gid by nothing after the second.
    assert sorted(written["stage-0"]) == ["a.id", "a.v", "b.g"]
    assert sorted(written["stage-1"]) == ["a.id", "c.t"]


class TestCandidates:
    LAYOUT = RowLayout(["a.id", "a.v", "c.v", "b.w"])

    @pytest.mark.parametrize("name, positions", [
        ("a.v", [1]),  # qualified: that column only
        ("w", [3]),  # a unique bare name
        ("v", [1, 2]),  # ambiguous: every candidate
        ("x.v", [1, 2]),  # a qualifier not in the layout falls back to bare
        ("nope", []),
    ])
    def test_candidates(self, name, positions):
        assert self.LAYOUT.candidates(name) == positions

    @pytest.mark.parametrize("name", ["a.v", "w", "v", "x.v", "x.w", "nope"])
    def test_a_layout_keeping_the_candidates_resolves_the_same(self, name):
        kept = RowLayout(
            [self.LAYOUT.columns[p] for p in self.LAYOUT.candidates(name)] + ["a.id"]
        )

        def outcome(layout):
            try:
                return layout.columns[layout.resolve(name)]
            except SqlExecutionError as error:
                return str(error)

        assert outcome(kept) == outcome(self.LAYOUT)
