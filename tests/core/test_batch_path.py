"""The batch path through the basic engine: aliasing and spill parity.

A shipped batch may share the owner table's column lists: a dense scan
with an identity selection passes ``Table.column_data()`` through without
copying, and the owner's insert paths extend those lists in place.  So
masking builds new vectors, the query peer's final plan only reads the
fetched vectors while the query runs, and whatever a batch derives later
stops at its own row count.  Every other write builds new lists, so a
batch, a memoised result or a backup taken before it keeps its rows.  And
however the fetched rows are batched, the spills counted are where a
row-at-a-time MemTable would spill.
"""

import pytest

from repro.core import READ, BestPeerConfig, BestPeerNetwork, Role, rule
from repro.core import engine_basic
from repro.core.peer import NormalPeer
from repro.sqlengine import Column, ColumnType, TableSchema
from repro.sqlengine.batch import ColumnRelation

JOIN_SQL = "SELECT a.id, a.v, b.w FROM a, b WHERE a.id = b.id"
A_ROWS = [(i, float(i)) for i in range(20)]
B_ROWS = [(i, 10.0 * i) for i in range(20)]


@pytest.fixture
def net():
    schemas = [
        TableSchema(
            "a",
            [Column("id", ColumnType.INTEGER), Column("v", ColumnType.FLOAT)],
        ),
        TableSchema(
            "b",
            [Column("id", ColumnType.INTEGER), Column("w", ColumnType.FLOAT)],
        ),
    ]
    net = BestPeerNetwork({schema.name: schema for schema in schemas})
    net.add_peer("p0", tables=["a"])
    net.add_peer("p1", tables=["b"])
    net.load_peer("p0", {"a": A_ROWS})
    net.load_peer("p1", {"b": B_ROWS})
    net.create_user(
        "auditor",
        "p0",
        Role(
            "narrow",
            [
                rule("a.id", [READ]),
                rule("a.v", [READ], (0.0, 5.0)),
                rule("b.id", [READ]),
                rule("b.w", [READ]),
            ],
        ),
    )
    return net


@pytest.fixture
def staged(monkeypatch):
    """Every relation the basic engine's final plan reads during the test."""
    relations = []

    class Recorded(ColumnRelation):
        def __init__(self, *args):
            super().__init__(*args)
            relations.append(self)

    monkeypatch.setattr(engine_basic, "ColumnRelation", Recorded)
    return relations


def test_results_and_staging_survive_owner_mutation(net, staged):
    owner = net.peers["p0"]
    table = owner.database.table("a")
    store = list(table.column_data())

    # The premise: an unfiltered projection ships the table's lists.
    held_lazy = owner.execute_fetch("a", "SELECT a.id, a.v FROM a a").result
    held_eager = owner.execute_fetch("a", "SELECT a.id, a.v FROM a a").result
    assert all(
        vector is column
        for vector, column in zip(held_lazy.batch.vectors, store)
    )
    eager_rows = held_eager.rows

    execution = net.execute(JOIN_SQL, engine="basic")
    assert execution.strategy == "fetch-and-process"
    records = list(execution.records)
    assert sorted(records) == [(i, float(i), 10.0 * i) for i in range(20)]

    # Read in place: one owner's batch is its binding's relation, down to the
    # owner's column lists, and nothing writes into them.
    relation_a, relation_b = staged
    assert [len(relation_a), len(relation_b)] == [20, 20]
    assert all(
        mine is theirs for mine, theirs in zip(relation_a.column_data(), store)
    )

    # In-place growth of the shared lists, then destructive rewrites.
    table.insert_many([(100 + i, -1.0) for i in range(5)])
    assert table.column_data()[0] is store[0] and len(store[0]) == 25
    owner.database.execute("UPDATE a SET v = 99.0 WHERE id = 3")
    owner.database.execute("DELETE FROM a WHERE id = 4")

    assert execution.records == records
    assert held_eager.rows is eager_rows and eager_rows == A_ROWS
    assert len(held_lazy) == 20
    assert held_lazy.rows == A_ROWS  # derived only now, bounded by count
    assert held_lazy.column("id") == [row[0] for row in A_ROWS]
    assert held_lazy.byte_size == held_eager.byte_size == 20 * 16
    # The relation's lists grew with the owner's: it lives only while its
    # query runs, and the records it produced are tuples of their own.
    assert len(relation_a.column_data()[0]) == 25 and len(relation_a) == 20


WRITES = {
    "delete_row": lambda table: table.delete_row(3),
    "update_rows": lambda table: table.update_rows([(3, (3, 99.0))]),
    "apply_delta": lambda table: table.apply_delta([(3, 3.0)], [(3, -3.0)]),
}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_batches_memos_and_backups_keep_their_rows_across_a_write(net, write):
    owner = net.peers["p0"]
    table = owner.database.table("a")
    sql = "SELECT a.id, a.v FROM a a"
    shipped = owner.execute_fetch("a", sql).result.batch
    first = owner.database.execute(sql)
    memo = owner.database.execute(sql)
    backup = owner.make_backup_payload()
    # The premise: all three hold the table's own lists, and the second
    # run was replayed from the plan-cache entry.
    assert memo.batch is first.batch
    for held in (shipped, memo.batch, backup.tables["a"]):
        assert all(v is c for v, c in zip(held.vectors, table.column_data()))

    WRITES[write](table)
    table.insert_many([(100, -1.0)])  # and the new lists grow in place
    assert list(table.rows()) != A_ROWS
    assert shipped.rows == memo.rows == backup.tables["a"].rows == A_ROWS
    assert backup.total_rows == len(A_ROWS)
    restored = NormalPeer("p0", owner.instance)
    restored.restore_from_payload(backup)
    assert list(restored.database.table("a").rows()) == A_ROWS


def test_masking_never_writes_into_the_owner_table(net, staged):
    owner = net.peers["p0"]
    execution = net.execute(JOIN_SQL, engine="basic", user="auditor")
    assert sorted(execution.records) == [
        (i, float(i) if i <= 5 else None, 10.0 * i) for i in range(20)
    ]
    table = owner.database.table("a")
    assert list(table.rows()) == A_ROWS
    assert table.column_data() == [list(c) for c in zip(*A_ROWS)]
    assert owner.database.execute("SELECT id, v FROM a").rows == A_ROWS


def test_small_memtable_spills_where_a_row_buffer_would():
    schemas = {
        name: TableSchema(
            name,
            [Column("id", ColumnType.INTEGER), Column(other, ColumnType.FLOAT)],
        )
        for name, other in (("a", "v"), ("b", "w"))
    }
    net = BestPeerNetwork(
        schemas, config=BestPeerConfig(memtable_capacity_bytes=100)
    )
    # Two owners of ``a``: its 30 rows arrive as batches of 20 and 10.
    net.add_peer("p0", tables=["a"])
    net.add_peer("p1", tables=["b"])
    net.add_peer("p2", tables=["a"])
    net.load_peer("p0", {"a": A_ROWS})
    net.load_peer("p2", {"a": [(i, float(i)) for i in range(20, 30)]})
    net.load_peer("p1", {"b": [(i, 10.0 * i) for i in range(30)]})
    execution = net.execute(JOIN_SQL, engine="basic")
    assert sorted(execution.records) == [
        (i, float(i), 10.0 * i) for i in range(30)
    ]
    # Rows are 16 typed bytes: a row buffer spills on every 7th row (112 >=
    # 100) — the third time one row into the second owner's batch — and the
    # final flush moves the last 2.  Same for ``b``'s single batch of 30.
    assert execution.memtable_spills == 2 * (30 // 7 + 1)
