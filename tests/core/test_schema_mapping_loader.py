"""Tests for schema mapping and the snapshot-differential data loader."""

import datetime
import sys

import pytest

from repro.core import BestPeerNetwork
from repro.core import loader as loader_module
from repro.core.loader import DataLoader, SnapshotDelta, snapshot_diff
from repro.core.peer import NormalPeer
from repro.core.schema_mapping import (
    MappingTemplate,
    SchemaMapping,
    TableMapping,
    identity_mapping,
)
from repro.errors import SchemaMappingError, SqlExecutionError
from repro.sqlengine import Column, ColumnBatch, ColumnType, Database, TableSchema


def global_schemas():
    return {
        "customer": TableSchema(
            "customer",
            [
                Column("c_custkey", ColumnType.INTEGER),
                Column("c_name", ColumnType.TEXT),
                Column("c_nation", ColumnType.TEXT),
            ],
            primary_key="c_custkey",
        )
    }


@pytest.fixture
def mapping():
    schema_mapping = SchemaMapping(global_schemas())
    schema_mapping.add_table_mapping(
        TableMapping(
            local_table="kunden",
            global_table="customer",
            column_map={"knr": "c_custkey", "kname": "c_name", "land": "c_nation"},
            value_map={"c_nation": {"DE": "GERMANY", "FR": "FRANCE"}},
        )
    )
    return schema_mapping


class TestSchemaMapping:
    def test_transform_renames_and_translates(self, mapping):
        table, batch = mapping.transform(
            "kunden",
            ["knr", "kname", "land"],
            [(1, "ACME", "DE"), (2, "Bolt", "US")],
        )
        assert table == "customer"
        assert batch.rows == [(1, "ACME", "GERMANY"), (2, "Bolt", "US")]

    def test_unmapped_local_column_dropped(self, mapping):
        table, batch = mapping.transform(
            "kunden", ["knr", "kname", "land", "extra"], [(1, "A", "DE", "junk")]
        )
        assert batch.rows == [(1, "A", "GERMANY")]

    def test_unmapped_global_column_is_null(self):
        schema_mapping = SchemaMapping(global_schemas())
        schema_mapping.add_table_mapping(
            TableMapping("kunden", "customer", {"knr": "c_custkey"})
        )
        _, batch = schema_mapping.transform("kunden", ["knr"], [(7,)])
        assert batch.rows == [(7, None, None)]

    def test_unknown_global_table_rejected(self):
        schema_mapping = SchemaMapping(global_schemas())
        with pytest.raises(SchemaMappingError):
            schema_mapping.add_table_mapping(TableMapping("x", "widgets", {}))

    def test_unknown_global_column_rejected(self):
        schema_mapping = SchemaMapping(global_schemas())
        with pytest.raises(SchemaMappingError):
            schema_mapping.add_table_mapping(
                TableMapping("x", "customer", {"a": "missing_col"})
            )

    def test_missing_mapping_rejected(self, mapping):
        with pytest.raises(SchemaMappingError):
            mapping.transform("unknown_table", ["a"], [(1,)])

    def test_row_width_mismatch_rejected(self, mapping):
        with pytest.raises(SchemaMappingError):
            mapping.transform("kunden", ["knr", "kname", "land"], [(1, "A")])

    def test_identity_mapping(self):
        mapping = identity_mapping(global_schemas())
        table, batch = mapping.transform(
            "customer", ["c_custkey", "c_name", "c_nation"], [(1, "A", "X")]
        )
        assert table == "customer"
        assert batch.rows == [(1, "A", "X")]

    def test_template_instantiation_with_override(self):
        template = MappingTemplate(
            system="SAP",
            tables={"customer": {"kunnr": "c_custkey", "name1": "c_name"}},
            local_table_names={"customer": "kna1"},
        )
        schema_mapping = SchemaMapping(global_schemas())
        template.instantiate(schema_mapping, overrides={"customer": "kna1_custom"})
        assert schema_mapping.has_mapping("kna1_custom")
        assert not schema_mapping.has_mapping("kna1")


class TestSnapshotDiff:
    def test_no_changes(self):
        rows = [(1, "a"), (2, "b")]
        inserted, deleted = snapshot_diff(rows, rows)
        assert inserted == []
        assert deleted == []

    def test_pure_insert(self):
        inserted, deleted = snapshot_diff([(1, "a")], [(1, "a"), (2, "b")])
        assert inserted == [(2, "b")]
        assert deleted == []

    def test_pure_delete(self):
        inserted, deleted = snapshot_diff([(1, "a"), (2, "b")], [(2, "b")])
        assert deleted == [(1, "a")]
        assert inserted == []

    def test_update_is_delete_plus_insert(self):
        inserted, deleted = snapshot_diff([(1, "old")], [(1, "new")])
        assert deleted == [(1, "old")]
        assert inserted == [(1, "new")]

    def test_duplicate_multiplicity(self):
        inserted, deleted = snapshot_diff([(1, "a"), (1, "a")], [(1, "a")])
        assert deleted == [(1, "a")]
        assert inserted == []

    def test_empty_sides(self):
        assert snapshot_diff([], [(1,)]) == ([(1,)], [])
        assert snapshot_diff([(1,)], []) == ([], [(1,)])
        assert snapshot_diff([], []) == ([], [])

    def test_large_diff_correct(self):
        old = [(i, f"row-{i}") for i in range(500)]
        new = [(i, f"row-{i}") for i in range(100, 600)]
        inserted, deleted = snapshot_diff(old, new)
        assert sorted(deleted) == [(i, f"row-{i}") for i in range(100)]
        assert sorted(inserted) == [(i, f"row-{i}") for i in range(500, 600)]


class TestDataLoader:
    @pytest.fixture
    def loader(self, mapping):
        database = Database()
        database.create_table(global_schemas()["customer"])
        return DataLoader(database, mapping)

    def test_initial_load(self, loader):
        delta = loader.initial_load(
            "kunden", ["knr", "kname", "land"], [(1, "A", "DE")]
        )
        assert delta.change_count == 1
        result = loader.database.execute("SELECT c_nation FROM customer")
        assert result.column("c_nation") == ["GERMANY"]

    def test_double_initial_load_rejected(self, loader):
        loader.initial_load("kunden", ["knr", "kname", "land"], [(1, "A", "DE")])
        with pytest.raises(SchemaMappingError):
            loader.initial_load("kunden", ["knr", "kname", "land"], [])

    def test_refresh_applies_delta(self, loader):
        columns = ["knr", "kname", "land"]
        loader.initial_load("kunden", columns, [(1, "A", "DE"), (2, "B", "FR")])
        delta = loader.refresh(
            "kunden", columns, [(1, "A", "DE"), (3, "C", "US")]
        )
        assert len(delta.inserted) == 1
        assert len(delta.deleted) == 1
        keys = loader.database.execute(
            "SELECT c_custkey FROM customer ORDER BY c_custkey"
        ).column("c_custkey")
        assert keys == [1, 3]

    def test_refresh_without_changes_is_empty(self, loader):
        columns = ["knr", "kname", "land"]
        rows = [(1, "A", "DE")]
        loader.initial_load("kunden", columns, rows)
        delta = loader.refresh("kunden", columns, rows)
        assert delta.is_empty

    def test_refresh_before_load_rejected(self, loader):
        with pytest.raises(SchemaMappingError):
            loader.refresh("kunden", ["knr", "kname", "land"], [])

    def test_the_loaded_table_is_the_snapshot(self, loader):
        columns = ["knr", "kname", "land"]
        delta = loader.initial_load("kunden", columns, [(1, "A", "DE")])
        assert delta.inserted.rows == [(1, "A", "GERMANY")]
        # The loader keeps the table's name, not a copy of its rows.
        assert vars(loader) == {
            "database": loader.database,
            "mapping": loader.mapping,
            "loaded": {"customer"},
        }
        assert list(loader.database.table("customer").rows()) == [
            (1, "A", "GERMANY")
        ]

    def test_update_roundtrip(self, loader):
        columns = ["knr", "kname", "land"]
        loader.initial_load("kunden", columns, [(1, "A", "DE")])
        loader.refresh("kunden", columns, [(1, "A-renamed", "DE")])
        names = loader.database.execute("SELECT c_name FROM customer")
        assert names.column("c_name") == ["A-renamed"]


# ----------------------------------------------------------------------
# A refresh diffs the values the table holds, not the raw extraction
# ----------------------------------------------------------------------
TYPED_SCHEMA = TableSchema(
    "typed",
    [
        Column("id", ColumnType.INTEGER),
        Column("name", ColumnType.TEXT),
        Column("day", ColumnType.DATE),
    ],
)
TYPED_COLUMNS = ["id", "name", "day"]


class TestRefreshDiffsCoercedValues:
    """The table coerces what it is given; a refresh that diffed the raw
    extraction asked it to delete rows it never held."""

    @pytest.mark.parametrize(
        "first, second, inserted, deleted, held",
        [
            pytest.param(  # a deleted row with an int in the TEXT column
                [(1, 7, "1998-09-15"), (2, "b", "1998-09-16")],
                [(2, "b", "1998-09-16")],
                [],
                [(1, "7", "1998-09-15")],
                [(2, "b", "1998-09-16")],
                id="int-in-text-deleted",
            ),
            pytest.param(  # a deleted row with a datetime.date
                [(1, "a", datetime.date(1998, 9, 15)), (2, "b", "1998-09-16")],
                [(2, "b", "1998-09-16"), (3, "c", datetime.date(1998, 9, 17))],
                [(3, "c", "1998-09-17")],
                [(1, "a", "1998-09-15")],
                [(2, "b", "1998-09-16"), (3, "c", "1998-09-17")],
                id="date-object-deleted",
            ),
            pytest.param(  # an unchanged row whose raw value went 7 -> "7"
                [(1, 7, "1998-09-15"), (2, "b", "1998-09-16")],
                [(1, "7", "1998-09-15"), (2, "b", "1998-09-16")],
                [],
                [],
                [(1, "7", "1998-09-15"), (2, "b", "1998-09-16")],
                id="raw-int-became-text",
            ),
        ],
    )
    def test_refresh_of_a_coerced_row(self, first, second, inserted, deleted, held):
        database = Database()
        table = database.create_table(TYPED_SCHEMA)
        loader = DataLoader(database, identity_mapping({"typed": TYPED_SCHEMA}))
        loader.initial_load("typed", TYPED_COLUMNS, first)
        delta = loader.refresh("typed", TYPED_COLUMNS, second)
        assert (delta.inserted, delta.deleted) == (inserted, deleted)
        assert sorted(table.rows()) == held
        # And the table can be refreshed again: it is not wedged.
        assert loader.refresh("typed", TYPED_COLUMNS, second).is_empty


# ----------------------------------------------------------------------
# A refresh is all-or-nothing, and costs what changed
# ----------------------------------------------------------------------
T_SCHEMA = TableSchema(
    "t",
    [Column("id", ColumnType.INTEGER), Column("v", ColumnType.TEXT)],
    primary_key="id",
)
T_COLUMNS = ["id", "v"]
T_LOADED = [(1, "a"), (2, "b"), (3, "c")]


def _table_state(table):
    """Everything a refresh may touch, in comparable form."""
    return {
        "rows": list(table.rows()),
        "version": table.version,
        "byte_size": table.byte_size,
        "live": len(table),
        "indexes": {
            name: (list(index.keys()), [index.lookup(k) for k in index.keys()])
            for name, index in table.indexes.items()
        },
        "columns": [list(column) for column in table.column_data()],
    }


class TestRefreshIsAtomic:
    @pytest.fixture
    def loader(self):
        database = Database()
        database.create_table(T_SCHEMA)
        loader = DataLoader(database, identity_mapping({"t": T_SCHEMA}))
        loader.initial_load("t", T_COLUMNS, T_LOADED)
        return loader

    def test_duplicate_key_leaves_everything_as_it_was(self, loader):
        table = loader.database.table("t")
        before = _table_state(table)
        with pytest.raises(SqlExecutionError, match="duplicate key 3"):
            loader.refresh(
                "t", T_COLUMNS, [(1, "a"), (2, "B"), (3, "c"), (3, "dup")]
            )
        assert _table_state(table) == before
        # The parent had deleted (2, 'b') by now and was wedged for good:
        # "snapshot delta wants to delete a missing row".
        delta = loader.refresh("t", T_COLUMNS, [(1, "a"), (2, "B"), (3, "c")])
        assert delta.change_count == 2
        assert sorted(table.rows()) == [(1, "a"), (2, "B"), (3, "c")]

    def test_missing_victim_leaves_everything_as_it_was(self, loader):
        table = loader.database.table("t")
        before = _table_state(table)
        # (2.0, 'b') == (2, 'b'), but the table holds an int: no victim.
        with pytest.raises(SqlExecutionError, match=r"no live row to delete: \(2\.0, 'b'\)"):
            table.apply_delta([(1, "a"), (2.0, "b")], [(4, "d")])
        assert _table_state(table) == before
        assert loader.refresh("t", T_COLUMNS, [(1, "a"), (3, "c")]).change_count == 1

    def test_a_write_behind_the_loader_is_diffed_by_the_next_refresh(self, loader):
        table = loader.database.table("t")
        # Edited behind the loader's back: the table, which is the snapshot,
        # says (2, 'edited') now, and the refresh diffs against that.
        loader.database.execute("UPDATE t SET v = 'edited' WHERE id = 2")
        delta = loader.refresh("t", T_COLUMNS, [(1, "A"), (3, "c"), (4, "d")])
        assert sorted(delta.deleted) == [(1, "a"), (2, "edited")]
        assert sorted(delta.inserted) == [(1, "A"), (4, "d")]
        assert sorted(table.rows()) == [(1, "A"), (3, "c"), (4, "d")]
        # Back in step with the extraction: the same one again is no change.
        assert loader.refresh("t", T_COLUMNS, [(1, "A"), (3, "c"), (4, "d")]).is_empty

    def test_update_of_one_primary_key_passes(self, loader):
        # Delete + insert of key 2: unique keys are checked against the
        # table *minus* the victims.
        table = loader.database.table("t")
        version = table.version
        delta = loader.refresh("t", T_COLUMNS, [(1, "a"), (2, "B"), (3, "c")])
        assert (delta.deleted, delta.inserted) == ([(2, "b")], [(2, "B")])
        assert table.version == version + 1
        # The victim's successors move up one; the new row goes last.
        assert list(table.rows()) == [(1, "a"), (3, "c"), (2, "B")]
        assert table.index_on("id").lookup(3) == [1]

    def test_empty_delta_touches_nothing(self, loader):
        table = loader.database.table("t")
        before = _table_state(table)
        assert loader.refresh("t", T_COLUMNS, list(T_LOADED)).is_empty
        assert _table_state(table) == before

    def test_refresh_peer_failure_changes_nothing(self):
        network = BestPeerNetwork({"t": T_SCHEMA})
        network.add_peer("p0")
        network.load_peer("p0", {"t": T_LOADED}, range_columns={"t": ["id"]})
        network.clock.advance(5.0)
        peer, indexer = network.peers["p0"], network.indexers["p0"]
        before = _table_state(peer.database.table("t"))
        published = list(indexer._published)
        census = network.overlay.census()
        refreshed_at = peer.last_refresh_at
        statistics = (
            network.statistics["t"].row_count,
            network.statistics["t"].total_bytes,
        )
        with pytest.raises(SqlExecutionError, match="duplicate key 3"):
            network.refresh_peer(
                "p0", "t", [(1, "a"), (2, "B"), (3, "c"), (3, "dup")],
                range_columns={"t": ["id"]},
            )
        assert _table_state(peer.database.table("t")) == before
        assert indexer._published == published
        assert network.overlay.census() == census
        assert peer.last_refresh_at == refreshed_at
        assert statistics == (
            network.statistics["t"].row_count,
            network.statistics["t"].total_bytes,
        )
        delta = network.refresh_peer(
            "p0", "t", [(1, "a"), (2, "B"), (3, "c")],
            range_columns={"t": ["id"]},
        )
        assert delta.change_count == 2
        assert peer.last_refresh_at == 5.0


def _numbered(count, changed=()):
    return [(i, f"v{i}" + ("*" if i in changed else "")) for i in range(count)]


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` made through the module's binding."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _python_calls_into(filename, fn):
    """How many Python-level calls ``fn()`` makes into ``filename``."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.endswith(filename):
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


class TestRefreshCostsWhatChanged:
    def _loaded(self, count):
        database = Database()
        database.create_table(T_SCHEMA)
        loader = DataLoader(database, identity_mapping({"t": T_SCHEMA}))
        loader.initial_load("t", T_COLUMNS, _numbered(count))
        return loader

    def test_fingerprints_only_the_changed_rows(self, monkeypatch):
        loader = self._loaded(200)
        calls = _count_calls(monkeypatch, loader_module, "fingerprint_tuple")
        delta = loader.refresh("t", T_COLUMNS, _numbered(200, changed=range(10)))
        assert delta.change_count == 20
        assert len(calls) == delta.change_count

    def test_unchanged_refresh_fingerprints_nothing(self, monkeypatch):
        loader = self._loaded(200)
        calls = _count_calls(monkeypatch, loader_module, "fingerprint_tuple")
        assert loader.refresh("t", T_COLUMNS, _numbered(200)).is_empty
        assert calls == []

    def test_table_calls_do_not_grow_with_the_table(self):
        counts = []
        for size in (200, 2000):
            loader = self._loaded(size)
            snapshot = _numbered(size, changed=range(50, 60))
            counts.append(
                _python_calls_into(
                    "sqlengine/table.py",
                    lambda: loader.refresh("t", T_COLUMNS, snapshot),
                )
            )
        assert counts[0] == counts[1] > 0

    def test_unchanged_refresh_writes_nothing_to_the_overlay(self, monkeypatch):
        network = BestPeerNetwork({"t": T_SCHEMA})
        for peer_id in ("p0", "p1", "p2"):
            network.add_peer(peer_id)
        ranges = {"t": ["id"]}
        network.load_peer("p0", {"t": _numbered(200)}, range_columns=ranges)
        overlay = type(network.overlay)
        inserts = _count_calls(monkeypatch, overlay, "insert")
        deletes = _count_calls(monkeypatch, overlay, "delete")
        assert network.refresh_peer(
            "p0", "t", _numbered(200), range_columns=ranges
        ).is_empty
        # Bounds unmoved (ids 0..199 either way): still no overlay write.
        network.refresh_peer(
            "p0", "t", _numbered(200, changed=range(10)), range_columns=ranges
        )
        assert inserts == deletes == []
        # A moved bound is one delete and one insert, not a republish.
        network.refresh_peer("p0", "t", _numbered(150), range_columns=ranges)
        assert (len(inserts), len(deletes)) == (1, 1)


def test_two_chained_updates_count_as_their_multiset_difference():
    """Two clones of one row differ only in a counter, ``a`` and ``a + 1``;
    the next snapshot bumps each by one.  As multisets the snapshots differ
    in one deleted row (``a``) and one inserted row (``a + 2``): ``a + 1``
    is in both.  A script that counts two changes per update expects 4."""
    schema = TableSchema(
        "stock",
        [Column("part", ColumnType.INTEGER), Column("qty", ColumnType.INTEGER)],
    )
    network = BestPeerNetwork({"stock": schema})
    network.add_peer("p0")
    kept = [(1, 10), (2, 20)]
    network.load_peer("p0", {"stock": kept + [(7, 500), (7, 501)]})
    delta = network.refresh_peer("p0", "stock", kept + [(7, 501), (7, 502)])
    assert (delta.inserted, delta.deleted) == ([(7, 502)], [(7, 500)])
    assert delta.change_count == 2
    assert sorted(network.peers["p0"].database.table("stock").rows()) == sorted(
        kept + [(7, 501), (7, 502)]
    )


class TestRefreshTellsTheStatisticsModule:
    """Eq. 1-11 read ``network.statistics``; it must follow the data."""

    @staticmethod
    def _network(partitions):
        network = BestPeerNetwork({"t": T_SCHEMA})
        for peer_id, rows in partitions.items():
            network.add_peer(peer_id)
            network.load_peer(peer_id, {"t": rows})
        return network

    @staticmethod
    def _counts(network):
        entry = network.statistics["t"]
        return entry.row_count, entry.total_bytes

    def test_statistics_follow_refreshes(self):
        first = {"p0": _numbered(10), "p1": _numbered(10)}
        network = self._network(first)
        assert self._counts(network) == (20, 280)
        grown = _numbered(1000)
        assert network.refresh_peer("p0", "t", grown).change_count == 990
        assert network.execute("SELECT COUNT(*) FROM t").scalar() == 1010
        assert self._counts(network)[0] == 1010  # 20 at the parent
        assert self._counts(network) == self._counts(
            self._network({"p0": grown, "p1": first["p1"]})
        )
        shrunk = _numbered(400, changed=range(0, 400, 7))
        network.refresh_peer("p1", "t", [])
        network.refresh_peer("p0", "t", shrunk)
        assert self._counts(network) == self._counts(
            self._network({"p0": shrunk, "p1": []})
        )

    def test_failed_refresh_is_not_counted(self):
        network = self._network({"p0": T_LOADED})
        before = self._counts(network)
        with pytest.raises(SqlExecutionError):
            network.refresh_peer("p0", "t", T_LOADED + [(3, "dup")])
        assert self._counts(network) == before


# ----------------------------------------------------------------------
# Loading costs what it validates, and a table shares nothing it took
# ----------------------------------------------------------------------
class TestLoadGoesThroughTheBulkDoor:
    @staticmethod
    def _network(rows):
        network = BestPeerNetwork({"t": T_SCHEMA})
        network.add_peer("p0")
        network.load_peer("p0", {"t": rows}, range_columns={"t": ["id"]})
        return network

    def test_validation_calls_do_not_grow_with_the_rows(self):
        counts = []
        for size in (200, 2000):
            network = BestPeerNetwork({"t": T_SCHEMA})
            network.add_peer("p0")
            rows = _numbered(size)
            counts.append(
                _python_calls_into(
                    ("sqlengine/types.py", "sqlengine/schema.py"),
                    lambda: network.load_peer("p0", {"t": rows}),
                )
            )
        # The parent made 8 calls per row (coerce_row, a coerce and a
        # byte_size per value, their generator frames): 1 608 and 16 008.
        assert counts[0] == counts[1] > 0

    def test_a_loaded_table_has_no_mirror_until_it_is_scanned(self):
        # Nor after: a scan reads the table's one store, the column lists.
        network = self._network(_numbered(50))
        table = network.peers["p0"].database.table("t")
        assert table.column_data() == [list(range(50)), [f"v{i}" for i in range(50)]]
        assert table.column_data() is table.column_data()

    def test_a_batch_builds_no_mirror(self):
        table = Database().create_table(T_SCHEMA)
        vectors = [[1, 2], ["a", "b"]]
        table.insert_many(ColumnBatch(T_COLUMNS, vectors, 2))
        assert table.column_data() == vectors
        assert all(mine is not given for mine, given in zip(table.column_data(), vectors))

    def test_writes_behind_the_loader_leave_the_backup_alone(self):
        rows = _numbered(20)
        network = self._network(list(rows))
        peer = network.peers["p0"]
        table = peer.database.table("t")
        backup = peer.make_backup_payload()
        # Writes behind the loader's back: new column lists in the table,
        # never a write into the backup's.
        peer.database.execute("UPDATE t SET v = 'edited' WHERE id < 5")
        peer.database.execute("DELETE FROM t WHERE id >= 15")
        assert len(table) == 15
        assert backup.tables["t"].rows == rows
        assert backup.loaded_tables == {"t"}
        restored = NormalPeer("p0", peer.instance)
        restored.set_schema_mapping(peer.loader.mapping)
        restored.restore_from_payload(backup)
        assert list(restored.database.table("t").rows()) == rows
        # The restored table is the restored loader's snapshot.
        assert restored.loader.loaded == {"t"}
        assert restored.loader.refresh("t", T_COLUMNS, rows).is_empty

    def test_a_refresh_replaces_the_store_and_leaves_the_old_one_alone(self):
        rows = _numbered(20)
        network = self._network(list(rows))
        peer = network.peers["p0"]
        before = peer.make_backup_payload().tables["t"]
        delta = network.refresh_peer("p0", "t", _numbered(25, changed=range(3)))
        assert delta.change_count == 3 + 3 + 5
        # The table's new column lists hold the new extraction; a batch over
        # the old ones still reads the rows it was given.
        assert sorted(peer.database.table("t").rows()) == _numbered(25, changed=range(3))
        assert before.rows == rows
        # A refresh's delta lists are its own, not the table's.
        delta.inserted.clear()
        assert sorted(peer.database.table("t").rows()) == _numbered(25, changed=range(3))

    @pytest.mark.parametrize("as_batch", [False, True])
    def test_second_load_into_a_unique_index_rejects_a_key_already_there(self, as_batch):
        table = Database().create_table(T_SCHEMA)
        table.insert_many(_numbered(10))
        before = _table_state(table)
        rows = [(10, "new"), (11, "new"), (4, "taken"), (12, "new")]
        if as_batch:
            rows = ColumnBatch(T_COLUMNS, [list(v) for v in zip(*rows)], 4)
        with pytest.raises(SqlExecutionError, match="duplicate key 4 for unique index 'pk_t'"):
            table.insert_many(rows)
        assert _table_state(table) == before
        assert table.insert_many([(10, "new")]) == [10]
