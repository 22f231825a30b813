"""Tests for heap tables, indexes-on-tables, and MemTables."""

import pytest

from repro.errors import SqlCatalogError, SqlExecutionError, SqlTypeError
from repro.sqlengine import (
    Column,
    ColumnBatch,
    ColumnType,
    MemTable,
    Table,
    TableSchema,
)


def make_table(primary_key="id"):
    schema = TableSchema(
        "items",
        [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("price", ColumnType.FLOAT),
            Column("label", ColumnType.TEXT),
        ],
        primary_key=primary_key,
    )
    return Table(schema)


class TestInsertAndRead:
    def test_insert_and_iterate(self):
        table = make_table()
        table.insert([1, 9.5, "a"])
        table.insert([2, 3.0, "b"])
        assert len(table) == 2
        assert list(table.rows()) == [(1, 9.5, "a"), (2, 3.0, "b")]

    def test_insert_returns_row_id(self):
        table = make_table()
        assert table.insert([1, 1.0, "x"]) == 0
        assert table.insert([2, 2.0, "y"]) == 1

    def test_row_by_id(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        assert table.row_by_id(row_id) == (1, 1.0, "x")

    def test_row_by_id_out_of_range(self):
        with pytest.raises(SqlExecutionError):
            make_table().row_by_id(0)

    def test_rows_by_ids_gathers_in_the_order_asked(self):
        table = make_table()
        table.insert_many([[k, float(k), "x"] for k in range(5)])
        assert table.rows_by_ids([3, 0, 3]) == [
            (3, 3.0, "x"), (0, 0.0, "x"), (3, 3.0, "x"),
        ]
        assert table.rows_by_ids([]) == []

    @pytest.mark.parametrize(
        "row_ids, message",
        [
            ([0, 5, 2], "row id out of range: 5"),
            ([0, -1], "row id out of range: -1"),
            ([1, 2, 4], "row id out of range: 4"),  # the delete moved row 4 up
            ([4, 7], "row id out of range: 4"),  # the first bad id, as a loop has it
            ([7, 2], "row id out of range: 7"),
        ],
    )
    def test_rows_by_ids_raises_what_row_by_id_raises(self, row_ids, message):
        table = make_table()
        table.insert_many([[k, float(k), "x"] for k in range(5)])
        table.delete_row(2)
        assert table.rows_by_ids([2, 3]) == [(3, 3.0, "x"), (4, 4.0, "x")]
        with pytest.raises(SqlExecutionError) as per_id:
            [table.row_by_id(row_id) for row_id in row_ids]
        with pytest.raises(SqlExecutionError) as gathered:
            table.rows_by_ids(row_ids)
        assert str(gathered.value) == str(per_id.value) == message

    @pytest.mark.parametrize("deleted", [None, 4])  # no delete / one after the ids
    def test_rows_by_ids_with_and_without_tombstones(self, deleted):
        table = make_table()
        table.insert_many([[k, float(k), "x"] for k in range(5)])
        if deleted is not None:
            table.delete_row(deleted)
        assert table.rows_by_ids([3, 1]) == [(3, 3.0, "x"), (1, 1.0, "x")]
        for row_ids, message in [
            ([1, 5], "row id out of range: 5"),
            ([1, -5], "row id out of range: -5"),
        ]:
            with pytest.raises(SqlExecutionError) as gathered:
                table.rows_by_ids(row_ids)
            assert str(gathered.value) == message

    def test_insert_many(self):
        table = make_table()
        ids = table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"]])
        assert ids == [0, 1]

    def test_byte_size_tracks_rows(self):
        table = make_table()
        assert table.byte_size == 0
        table.insert([1, 1.0, "x"])
        first = table.byte_size
        assert first > 0
        table.insert([2, 2.0, "yyyy"])
        assert table.byte_size > 2 * first - 4  # longer label costs more


class TestPrimaryKey:
    def test_pk_index_created_automatically(self):
        table = make_table()
        assert table.index_on("id") is not None
        assert table.index_on("id").unique

    def test_duplicate_pk_rejected(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        with pytest.raises(SqlExecutionError):
            table.insert([1, 2.0, "y"])

    def test_failed_insert_leaves_table_unchanged(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        size = table.byte_size
        with pytest.raises(SqlExecutionError):
            table.insert([1, 2.0, "y"])
        assert len(table) == 1
        assert table.byte_size == size

    def test_no_pk_table_allows_duplicates(self):
        table = make_table(primary_key=None)
        table.insert([1, 1.0, "x"])
        table.insert([1, 1.0, "x"])
        assert len(table) == 2


class TestDelete:
    def test_delete_row(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.insert([2, 2.0, "y"])
        table.delete_row(row_id)
        assert len(table) == 1
        assert list(table.rows()) == [(2, 2.0, "y")]

    def test_delete_updates_indexes(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.delete_row(row_id)
        assert table.index_on("id").lookup(1) == []

    def test_double_delete_rejected(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.delete_row(row_id)
        # The id now names no row: it is past the end of the table.
        with pytest.raises(SqlExecutionError):
            table.delete_row(row_id)

    def test_delete_where(self):
        table = make_table()
        table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"], [3, 3.0, "x"]])
        deleted = table.delete_where(lambda row: row[2] == "x")
        assert deleted == 2
        assert list(table.rows()) == [(2, 2.0, "y")]

    def test_pk_reusable_after_delete(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.delete_row(row_id)
        table.insert([1, 5.0, "z"])  # must not raise
        assert len(table) == 1

    def test_truncate(self):
        table = make_table()
        table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"]])
        table.truncate()
        assert len(table) == 0
        assert table.byte_size == 0
        assert table.index_on("id").lookup(1) == []

    def test_apply_delta_takes_the_row_alike_in_type_and_value(self):
        table = make_table(primary_key=None)
        table.insert_many([[1, 0.0, "x"], [1, -0.0, "x"]])
        # (1, 0.0, 'x') == (1, -0.0, 'x'), yet only the second is -0.0.
        table.apply_delta([(1, -0.0, "x")], [])
        assert repr(list(table.rows())) == "[(1, 0.0, 'x')]"


class TestUpdate:
    def test_update_row(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.update_rows([(row_id, [1, 9.0, "z"])])
        assert table.row_by_id(row_id) == (1, 9.0, "z")

    def test_update_maintains_index(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.update_rows([(row_id, [7, 1.0, "x"])])
        assert table.index_on("id").lookup(1) == []
        assert table.index_on("id").lookup(7) == [row_id]

    def test_a_moved_key_keeps_its_ids_ascending(self):
        table = make_table()
        table.create_index("idx_price", "price")
        table.insert_many([[1, 0.0, "x"], [2, 1.5, "y"], [3, 1.5, "z"]])
        table.update_rows([(0, [1, 1.5, "x"])])
        # Ids in row order, as a delete's rebuild would leave them.
        assert table.index_on("price").lookup(1.5) == [0, 1, 2]
        assert list(table.index_on("price").range_scan()) == [0, 1, 2]

    def test_update_to_duplicate_pk_rejected(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        row_id = table.insert([2, 2.0, "y"])
        with pytest.raises(SqlExecutionError):
            table.update_rows([(row_id, [1, 2.0, "y"])])


class TestSecondaryIndexes:
    def test_create_index_over_existing_rows(self):
        table = make_table()
        table.insert_many([[1, 5.0, "x"], [2, 3.0, "y"], [3, 5.0, "z"]])
        index = table.create_index("idx_price", "price")
        assert sorted(index.lookup(5.0)) == [0, 2]

    def test_create_index_unknown_column(self):
        with pytest.raises(SqlCatalogError):
            make_table().create_index("idx", "zzz")

    def test_duplicate_index_name_rejected(self):
        table = make_table()
        table.create_index("idx", "price")
        with pytest.raises(SqlCatalogError):
            table.create_index("idx", "label")

    def test_index_on_prefers_unique(self):
        table = make_table()
        table.create_index("idx_id2", "id")  # non-unique duplicate on same col
        chosen = table.index_on("id")
        assert chosen.unique

    def test_index_on_missing_column_returns_none(self):
        assert make_table().index_on("label") is None


ROWS = [(i, float(i), "row" * (i % 3)) for i in range(10)]


def batch_of(rows, table):
    return ColumnBatch.from_rows(table.schema.column_names, rows)


def columns_of(table, vectors):
    """A vector-built batch for ``table`` (ragged input allowed, to test)."""
    return ColumnBatch(table.schema.column_names, vectors, len(vectors[0]))


class TestMemTable:
    def test_buffers_until_capacity(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=10_000)
        mem.append([1, 1.0, "x"])
        assert len(table) == 0
        assert mem.buffered_rows == 1

    def test_spills_when_full(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=64)
        for i in range(10):
            mem.append([i, float(i), "row"])
        assert len(table) > 0
        assert mem.spill_count >= 1

    def test_flush_moves_all_rows(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=10**9)
        mem.extend(batch_of([(1, 1.0, "x"), (2, 2.0, "y")], table))
        assert mem.buffered_rows == 2
        assert mem.buffered_bytes == 2 * (8 + 8 + 5)
        flushed = mem.flush()
        assert flushed == 2
        assert len(table) == 2
        assert mem.buffered_rows == 0 and mem.buffered_bytes == 0

    def test_flush_empty_is_noop(self):
        table = make_table(primary_key=None)
        mem = MemTable(table)
        assert mem.flush() == 0
        assert mem.spill_count == 0

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(SqlExecutionError):
            MemTable(make_table(), capacity_bytes=0)

    @pytest.mark.parametrize("capacity", [1, 21, 64, 65, 200, 10**6])
    def test_batch_extend_spills_where_single_row_appends_do(self, capacity):
        by_row = make_table(primary_key=None)
        row_mem = MemTable(by_row, capacity_bytes=capacity)
        for row in ROWS:
            row_mem.append(row)
        by_batch = make_table(primary_key=None)
        batch_mem = MemTable(by_batch, capacity_bytes=capacity)
        batch_mem.extend(batch_of(ROWS[:4], by_batch))
        batch_mem.extend(batch_of(ROWS[4:], by_batch))
        # Same spill points before the final flush, and after it.
        assert batch_mem.spill_count == row_mem.spill_count
        assert batch_mem.buffered_rows == row_mem.buffered_rows
        assert batch_mem.buffered_bytes == row_mem.buffered_bytes
        assert list(by_batch.rows()) == list(by_row.rows())
        row_mem.flush(), batch_mem.flush()
        assert batch_mem.spill_count == row_mem.spill_count
        assert list(by_batch.rows()) == list(by_row.rows()) == ROWS
        assert by_batch.column_data() == by_row.column_data()
        assert by_batch.byte_size == by_row.byte_size

    def test_flush_shares_no_list_with_the_batch(self):
        table = make_table(primary_key=None)
        vectors = [[1, 2], [1.0, 2.0], ["x", "y"]]
        mem = MemTable(table)
        mem.extend(ColumnBatch(table.schema.column_names, vectors, 2))
        vectors[0].append(3)  # the producer's storage grows in place
        mem.flush()
        assert table.column_data() == [[1, 2], [1.0, 2.0], ["x", "y"]]
        assert all(
            mine is not theirs
            for mine, theirs in zip(table.column_data(), vectors)
        )

    def test_wrong_width_rejected_on_extend(self):
        mem = MemTable(make_table(primary_key=None))
        with pytest.raises(SqlCatalogError):
            mem.append([1, 1.0])

    def test_mistyped_value_rejected_by_the_backing_table(self):
        table = make_table(primary_key=None)
        mem = MemTable(table)
        mem.append([True, 1.0, "x"])
        with pytest.raises(SqlTypeError):
            mem.flush()
        assert len(table) == 0


class TestInsertManyFromABatch:
    def test_takes_copies_of_the_vectors_as_the_column_mirror(self):
        table = make_table()
        vectors = [[1, 2], [9.5, None], ["a", "b"]]
        assert table.insert_many(columns_of(table, vectors)) == [0, 1]
        assert list(table.rows()) == [(1, 9.5, "a"), (2, None, "b")]
        vectors[0].append(3)  # the producer's storage lives on
        assert table.column_data() == [[1, 2], [9.5, None], ["a", "b"]]
        assert table.byte_size == (8 + 8 + 5) + (8 + 1 + 5)
        assert table.index_on("id").lookup(2) == [1]

    def test_appends_to_a_populated_table(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        store = table.column_data()
        table.insert_many(columns_of(table, [[2, 3], [2.0, 3.0], ["y", "z"]]))
        assert table.column_data() is store
        assert store == [[1, 2, 3], [1.0, 2.0, 3.0], ["x", "y", "z"]]
        assert len(table) == 3

    def test_stale_mirror_is_rebuilt_not_adopted(self):
        table = make_table()
        table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"]])
        table.column_data()
        table.delete_row(0)
        table.insert_many(columns_of(table, [[3], [3.0], ["z"]]))
        assert table.column_data() == [[2, 3], [2.0, 3.0], ["y", "z"]]

    def test_mistyped_column_is_coerced_like_coerce_row(self):
        table = make_table()
        table.insert_many(columns_of(table, [[1.0, "2"], [1, 2.5], [7, "b"]]))
        assert list(table.rows()) == [(1, 1.0, "7"), (2, 2.5, "b")]
        assert [type(v) for v in table.column_data()[1]] == [float, float]

    def test_rejections_leave_the_table_unchanged(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        for bad, error in [
            ([[True], [1.0], ["a"]], SqlTypeError),       # bool is no INTEGER
            ([[None], [1.0], ["a"]], SqlCatalogError),    # NOT NULL
            ([[2], [1.0]], SqlCatalogError),              # width
            ([[2, 3], [1.0], ["a"]], SqlCatalogError),    # ragged
            ([[2, 2], [1.0, 2.0], ["a", "b"]], SqlExecutionError),  # dup in batch
            ([[1], [1.0], ["a"]], SqlExecutionError),     # dup against table
        ]:
            with pytest.raises(error):
                table.insert_many(columns_of(table, bad))
        assert list(table.rows()) == [(1, 1.0, "x")]
        assert table.column_data() == [[1], [1.0], ["x"]]

    def test_date_strings_are_checked(self):
        table = Table(TableSchema("d", [Column("day", ColumnType.DATE)]))
        table.insert_many(columns_of(table, [["1995-03-15", None, "1995-03-15"]]))
        assert table.byte_size == 10 + 1 + 10
        with pytest.raises(SqlTypeError):
            table.insert_many(columns_of(table, [["1995-03-15", "yesterday"]]))
        assert len(table) == 3


class TestColumnStore:
    """The column lists are the table's one store: appends extend them in
    place, every other write replaces them and leaves the old ones alone."""

    def test_column_data_transposes_live_rows(self):
        table = make_table()
        table.insert([1, 9.5, "a"])
        table.insert([2, 3.0, "b"])
        assert table.column_data() == [[1, 2], [9.5, 3.0], ["a", "b"]]

    def test_empty_table_yields_empty_columns(self):
        assert make_table().column_data() == [[], [], []]

    def test_cached_between_reads(self):  # the store itself, not a copy
        table = make_table()
        table.insert([1, 1.0, "x"])
        assert table.column_data() is table.column_data()

    def test_insert_extends_store_in_place(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        store = table.column_data()
        table.insert([2, 2.0, "y"])
        # The same lists grow; no re-transpose of the whole table.
        assert table.column_data() is store
        assert store[0] == [1, 2]

    def test_insert_many_extends_store_in_place(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        store = table.column_data()
        table.insert_many([[2, 2.0, "y"], [3, 3.0, "z"]])
        assert table.column_data() is store
        assert store[2] == ["x", "y", "z"]

    def test_delete_invalidates_and_compacts(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        row_id = table.insert([2, 2.0, "y"])
        table.insert([3, 3.0, "z"])
        store = table.column_data()
        table.delete_row(row_id)
        # The rows after it move up: a position is a row id.
        assert table.column_data() == [[1, 3], [1.0, 3.0], ["x", "z"]]
        assert table.index_on("id").lookup(3) == [1]
        assert store == [[1, 2, 3], [1.0, 2.0, 3.0], ["x", "y", "z"]]

    def test_update_invalidates(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        store = table.column_data()
        table.update_rows([(row_id, [1, 7.5, "w"])])
        assert table.column_data() == [[1], [7.5], ["w"]]
        assert store == [[1], [1.0], ["x"]]

    def test_create_index_keeps_store_current(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        store = table.column_data()
        table.create_index("idx_label", "label")
        assert table.column_data() is store


class TestInsertManyAtomicity:
    def test_intra_batch_duplicate_leaves_table_unchanged(self):
        table = make_table()
        version = table.version
        with pytest.raises(SqlExecutionError):
            table.insert_many([[1, 1.0, "x"], [1, 2.0, "y"]])
        assert len(table) == 0
        assert table.version == version
        assert table.index_on("id").lookup(1) == []

    def test_conflict_with_existing_row_keeps_batch_out(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        with pytest.raises(SqlExecutionError):
            table.insert_many([[2, 2.0, "y"], [1, 3.0, "z"]])
        # Per-row insertion would have kept row 2; the bulk path must not.
        assert list(table.rows()) == [(1, 1.0, "x")]
        assert table.index_on("id").lookup(2) == []

    def test_single_version_bump_per_batch(self):
        table = make_table()
        version = table.version
        table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"], [3, 3.0, "z"]])
        assert table.version == version + 1

    def test_indexes_consistent_after_bulk_load(self):
        table = make_table(primary_key=None)
        table.create_index("idx_label", "label")
        table.insert_many(
            [[1, 1.0, "x"], [2, 2.0, "y"], [3, 3.0, "x"], [4, 4.0, None]]
        )
        index = table.index_on("label")
        assert index.lookup("x") == [0, 2]
        assert index.lookup("y") == [1]
        assert len(index) == 3  # None keys are never indexed

    def test_empty_batch_is_a_no_op(self):
        table = make_table()
        version = table.version
        assert table.insert_many([]) == []
        assert table.version == version
