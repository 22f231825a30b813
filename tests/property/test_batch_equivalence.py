"""Property: the column batch path is indistinguishable from the row path.

Between an owner's plan and the query peer's final scan, data travels as
one :class:`ColumnBatch` — masked per column, priced per column, selected by
position, staged by adoption.  Each of those replaced a row-at-a-time loop;
the loops live on here as the oracles.  For generated schemas, rows with
NULLs, roles and key sets, batching may change speed only: never a masked
value, a priced byte, a selected row, a staged table or a spill.
"""

from hypothesis import given, settings, strategies as st

from repro.core.access_control import READ, WRITE, AccessController, Role, rule
from repro.errors import SqlCatalogError, SqlTypeError
from repro.sqlengine import (
    Column,
    ColumnBatch,
    ColumnType,
    MemTable,
    Table,
    TableSchema,
)
from tests.property.test_wire_pricing import by_value_byte_size

DATES = ["1994-01-01", "1995-03-15", "1995-03-16", "1998-12-01"]
TYPED_VALUES = {
    ColumnType.INTEGER: st.integers(min_value=-5, max_value=12),
    ColumnType.FLOAT: st.floats(min_value=-5, max_value=12, allow_nan=False),
    ColumnType.TEXT: st.text(alphabet="abmz 19", max_size=6),
    ColumnType.DATE: st.sampled_from(DATES),
}
#: Anything a sloppy producer might put in a vector.
LOOSE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.sampled_from(["7", "2.5", "x", "", "1995-03-15", "1995-3-15"]),
)
CAPACITIES = st.sampled_from(
    [64, 65, 100, 333, 1000, 10_000, 1_000_000, 100 * 1024 * 1024]
)

column_types = st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=5)


def make_schema(types, nullable=True):
    return TableSchema(
        "t", [Column(f"c{i}", kind, nullable) for i, kind in enumerate(types)]
    )


@st.composite
def typed_tables(draw, max_rows=30):
    """(schema, rows): values of each column's type, NULLs sprinkled in."""
    types = draw(column_types)
    row = st.tuples(
        *[st.one_of(st.none(), TYPED_VALUES[kind]) for kind in types]
    )
    return make_schema(types), draw(st.lists(row, max_size=max_rows))


def batch_of(schema, rows):
    """The rows as a vector-built batch, the shape an owner's scan ships."""
    vectors = [list(column) for column in zip(*rows)] or [
        [] for _ in schema.columns
    ]
    return ColumnBatch(schema.column_names, vectors, len(rows))


# ----------------------------------------------------------------------
# Masking
# ----------------------------------------------------------------------
RANGES = [(0, 5), (0.5, 3.5), ("a", "m"), ("1995-01-01", "1996-01-01")]
column_rules = st.one_of(
    st.just("no-rule"),
    st.just("write-only"),
    st.just("unrestricted"),
    st.sampled_from(RANGES),  # also over columns its bounds cannot compare with
)


def reference_rewrite(role, table, columns, rows):
    """The row-at-a-time masking loop the column kernel replaced."""
    rules = [role.rule_for(f"{table.lower()}.{column}") for column in columns]
    readable = [
        access_rule is not None and READ in access_rule.privileges
        for access_rule in rules
    ]
    rewritten = []
    for row in rows:
        values = []
        for value, ok, access_rule in zip(row, readable, rules):
            if not ok:
                values.append(None)
            elif access_rule is not None and not access_rule.allows_value(value):
                values.append(None)
            else:
                values.append(value)
        rewritten.append(tuple(values))
    return rewritten


class TestMasking:
    @settings(max_examples=200, deadline=None)
    @given(typed_tables(), st.data())
    def test_column_masking_matches_the_row_loop(self, table, data):
        schema, rows = table
        rules = []
        for name in schema.column_names:
            choice = data.draw(column_rules, label=name)
            if choice == "write-only":
                rules.append(rule(f"t.{name}", [WRITE]))
            elif choice == "unrestricted":
                rules.append(rule(f"t.{name}", [READ]))
            elif choice != "no-rule":
                rules.append(rule(f"t.{name}", [READ, WRITE], choice))
        role = Role("r", rules)
        controller = AccessController()
        controller.assign("u", role)
        expected = reference_rewrite(role, "T", schema.column_names, rows)

        batch = batch_of(schema, rows)
        before = [list(vector) for vector in batch.vectors]
        masked = controller.rewrite_rows("u", "T", schema.column_names, batch)
        assert masked.rows == expected
        assert len(masked) == len(rows)
        assert masked.byte_size == by_value_byte_size(expected)
        # Immutability: the input batch and its vectors are as they were.
        assert batch.vectors == before and batch.rows == rows

        from_rows = ColumnBatch.from_rows(schema.column_names, rows)
        assert (
            controller.rewrite_rows("u", "T", schema.column_names, from_rows).rows
            == expected
        )


    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(LOOSE_VALUES, LOOSE_VALUES), max_size=20),
        st.sampled_from(RANGES),
    )
    def test_values_that_do_not_compare_are_masked_one_by_one(
        self, rows, value_range
    ):
        # A column mixing numbers and text: only the values the bounds
        # cannot be compared with take the ``TypeError -> NULL`` arm.
        role = Role("r", [rule("t.x", [READ], value_range), rule("t.y", [READ])])
        controller = AccessController()
        controller.assign("u", role)
        batch = ColumnBatch.from_rows(["x", "y"], rows)
        masked = controller.rewrite_rows("u", "t", ["x", "y"], batch)
        assert masked.rows == reference_rewrite(role, "t", ["x", "y"], rows)


# ----------------------------------------------------------------------
# Pricing and selection
# ----------------------------------------------------------------------
class TestPricingAndSelection:
    @settings(max_examples=200, deadline=None)
    @given(typed_tables())
    def test_typed_batch_price_is_the_by_value_price(self, table):
        schema, rows = table
        assert batch_of(schema, rows).byte_size == by_value_byte_size(rows)
        assert (
            ColumnBatch.from_rows(schema.column_names, rows).byte_size
            == by_value_byte_size(rows)
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(LOOSE_VALUES, LOOSE_VALUES), max_size=20))
    def test_untyped_batch_price_is_the_by_value_price(self, rows):
        # Derived columns (partial aggregates, expressions) have no schema.
        batch = ColumnBatch.from_rows(["x", "y"], rows)
        assert batch.byte_size == by_value_byte_size(rows)

    @settings(max_examples=200, deadline=None)
    @given(
        typed_tables(),
        st.data(),
        st.frozensets(
            st.one_of(st.none(), *TYPED_VALUES.values()), max_size=12
        ),
    )
    def test_selection_matches_the_row_filter(self, table, data, keys):
        schema, rows = table
        position = data.draw(
            st.integers(min_value=0, max_value=len(schema.columns) - 1)
        )
        batch = batch_of(schema, rows)
        kept = batch.take(
            [i for i, key in enumerate(batch.vectors[position]) if key in keys]
        )
        expected = [row for row in rows if row[position] in keys]
        assert kept.rows == expected
        assert len(kept) == len(expected)
        assert kept.byte_size == by_value_byte_size(expected)
        assert kept.columns == batch.columns
        assert batch.rows == rows


# ----------------------------------------------------------------------
# Staging
# ----------------------------------------------------------------------
class RowWiseMemTable:
    """The row-at-a-time buffer the batch MemTable replaced (the oracle):
    coerce and price every row, spill as soon as the bound is reached."""

    def __init__(self, backing, capacity_bytes):
        self.backing = backing
        self.capacity_bytes = capacity_bytes
        self.buffer = []
        self.buffered_bytes = 0
        self.spill_count = 0

    def stage_row(self, values):
        row = self.backing.schema.coerce_row(values)
        self.buffer.append(row)
        self.buffered_bytes += sum(
            column.column_type.byte_size(value)
            for column, value in zip(self.backing.schema.columns, row)
        )
        if self.buffered_bytes >= self.capacity_bytes:
            self.flush()

    def flush(self):
        if self.buffer:
            self.backing.insert_many(self.buffer)
            self.buffer = []
            self.buffered_bytes = 0
            self.spill_count += 1


def assert_same_table(got, expected):
    assert list(got.rows()) == list(expected.rows())
    assert got.column_data() == expected.column_data()
    assert [list(map(type, column)) for column in got.column_data()] == [
        list(map(type, column)) for column in expected.column_data()
    ]
    assert len(got) == len(expected)
    assert got.byte_size == expected.byte_size


class TestStaging:
    @settings(max_examples=300, deadline=None)
    @given(typed_tables(), CAPACITIES, st.data())
    def test_batch_staging_matches_row_staging(self, table, capacity, data):
        schema, rows = table
        by_row = Table(schema)
        reference = RowWiseMemTable(by_row, capacity)
        for row in rows:
            reference.stage_row(row)

        # The same rows as one to three owners' batches.
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(rows)), max_size=2
                )
            )
        )
        by_batch = Table(schema)
        memtable = MemTable(by_batch, capacity_bytes=capacity)
        for start, stop in zip([0] + cuts, cuts + [len(rows)]):
            memtable.extend(batch_of(schema, rows[start:stop]))
        assert memtable.spill_count == reference.spill_count
        assert memtable.buffered_bytes == reference.buffered_bytes
        assert memtable.buffered_rows == len(reference.buffer)

        reference.flush()
        memtable.flush()
        assert memtable.spill_count == reference.spill_count
        assert_same_table(by_batch, by_row)

    @settings(max_examples=300, deadline=None)
    @given(column_types, st.data())
    def test_mistyped_columns_coerced_or_rejected_like_coerce_row(
        self, types, data
    ):
        # Ints in a FLOAT column, numeric strings, a bool in an INTEGER
        # column, a malformed date: whatever coerce_row does, per value.
        schema = make_schema(types)
        rows = data.draw(
            st.lists(st.tuples(*[LOOSE_VALUES] * len(types)), max_size=12)
        )
        by_row = Table(schema)
        try:
            by_row.insert_many(rows)
            expected_error = None
        except (SqlTypeError, SqlCatalogError) as exc:
            expected_error = type(exc)

        by_column = Table(schema)
        memtable = MemTable(by_column)
        try:
            memtable.extend(batch_of(schema, rows))
            memtable.flush()
            error = None
        except (SqlTypeError, SqlCatalogError) as exc:
            error = type(exc)
        assert error == expected_error
        assert_same_table(by_column, by_row)

    @settings(max_examples=100, deadline=None)
    @given(typed_tables())
    def test_not_null_columns_reject_nulls_like_coerce_row(self, table):
        nullable_schema, rows = table
        schema = make_schema(
            [column.column_type for column in nullable_schema.columns],
            nullable=False,
        )
        has_null = any(value is None for row in rows for value in row)
        by_column = Table(schema)
        try:
            by_column.insert_many(batch_of(schema, rows))
            rejected = False
        except SqlCatalogError:
            rejected = True
        assert rejected == has_null
        assert len(by_column) == (0 if has_null else len(rows))
