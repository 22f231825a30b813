"""Property: the bulk-write door is a row-by-row insert loop, only atomic.

``Table.insert_many`` validates and prices a batch column by column; the
loop it replaced — ``insert`` per row — lives on here as the oracle.  For
generated schemas (NOT NULL, primary key, secondary index), tables that
already hold rows, tombstones and perhaps a built column mirror, and sloppy
batches (ints in FLOAT columns, numeric strings, ``bool``, ``date`` objects,
NULLs, ragged rows, duplicate keys, list rows, a generator argument), the
rows-shaped door and the :class:`ColumnBatch`-shaped door must leave what
the loop leaves — or, where the loop raises, raise its *first* error and
leave the table exactly as it was.

``SchemaMapping.transform`` went column-major in the same change; its
per-row loop is the second oracle below.
"""

import datetime

from hypothesis import given, settings, strategies as st

from repro.core.schema_mapping import SchemaMapping, TableMapping
from repro.errors import SchemaMappingError, SqlError
from repro.sqlengine import Column, ColumnBatch, ColumnType, Table, TableSchema

KINDS = list(ColumnType)
#: Values of the right type per column: what a careful producer sends.
TYPED = {
    ColumnType.INTEGER: st.integers(min_value=0, max_value=6),
    ColumnType.FLOAT: st.sampled_from([0.0, 1.0, 2.5, 3.0]),
    ColumnType.TEXT: st.sampled_from(["", "a", "b", "7", "2.5"]),
    ColumnType.DATE: st.sampled_from(["1995-03-15", "1995-03-16", "1998-02-30"]),
}
#: Anything a sloppy producer might send instead.
LOOSE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1.0, 2.0, 2.5]),
    st.sampled_from(["7", "2", "2.5", "x", "1995-03-15", "1995-3-15"]),
    st.just(datetime.date(1995, 3, 16)),
)


@st.composite
def scenarios(draw):
    types = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    width = len(types)
    schema = TableSchema(
        "t",
        [
            Column(f"c{i}", kind, nullable=draw(st.booleans()))
            for i, kind in enumerate(types)
        ],
        primary_key=draw(st.sampled_from([None] + [f"c{i}" for i in range(width)])),
    )
    secondary = draw(st.sampled_from([None] + [f"c{i}" for i in range(width)]))
    value = lambda kind: st.one_of(TYPED[kind], TYPED[kind], LOOSE)  # noqa: E731
    row = st.tuples(*[value(kind) for kind in types])

    def misshapen(drawn):
        shape = draw(st.sampled_from(["tuple"] * 6 + ["list", "short", "long"]))
        if shape == "list":
            return list(drawn)
        if shape == "short":
            return drawn[:-1]
        return drawn + (None,) if shape == "long" else drawn

    return {
        "schema": schema,
        "secondary": secondary,
        "resident": draw(st.lists(row, max_size=5)),
        "tombstone": draw(st.booleans()),
        "mirror": draw(st.booleans()),
        "batch": [misshapen(r) for r in draw(st.lists(row, max_size=8))],
        "generator": draw(st.booleans()),
    }


def build(scenario):
    """A fresh table in the scenario's starting state."""
    table = Table(scenario["schema"])
    if scenario["secondary"]:
        table.create_index("idx_t", scenario["secondary"])
    for row in scenario["resident"]:
        try:
            table.insert(row)
        except SqlError:
            pass  # residents that do not fit simply are not there
    if scenario["tombstone"] and len(table):
        table.delete_row(next(table.row_ids()))
    if scenario["mirror"]:
        table.column_data()
    return table


def mirror_is_current(table):
    return table._column_store is not None and (
        table._column_store_version == table.version
    )


def surface(table):
    """Everything a write may touch, mirror state included, without
    building the mirror by looking."""
    indexes = {}
    for name, index in table.indexes.items():
        keys = list(index.keys())
        indexes[name] = (
            keys,
            [index.lookup(key) for key in keys],
            list(index.range_scan()),
            [list(index.range_scan(low=key, low_inclusive=False)) for key in keys],
            [list(index.range_scan(high=key)) for key in keys],
            len(index),
        )
    return {
        "rows": list(table._rows),
        "types": [None if row is None else list(map(type, row)) for row in table._rows],
        "len": len(table),
        "byte_size": table.byte_size,
        "indexes": indexes,
        "version": table.version,
        "mirror": mirror_is_current(table)
        and [list(column) for column in table._column_store],
    }


def as_batch(schema, rows):
    """The rows as a caller's batch: vector-built (what an owner's scan
    ships) when they are rectangular, else wrapped rows."""
    if rows and len(set(map(len, rows))) == 1:
        vectors = [list(column) for column in zip(*rows)]
        return ColumnBatch(schema.column_names, vectors, len(rows))
    return ColumnBatch.from_rows(schema.column_names, list(rows))


def attempt(write):
    try:
        return write(), None
    except SqlError as error:
        return None, (type(error), str(error))


class TestInsertManyIsTheInsertLoopMadeAtomic:
    @settings(max_examples=600, deadline=None)
    @given(scenarios())
    def test_both_doors_agree_with_the_row_loop(self, scenario):
        schema, batch = scenario["schema"], scenario["batch"]
        oracle = build(scenario)
        untouched = surface(oracle)
        expected_ids, expected_error = attempt(
            lambda: [oracle.insert(row) for row in batch]
        )
        doors = {
            "rows": lambda table: table.insert_many(
                iter(batch) if scenario["generator"] else batch
            ),
            "batch": lambda table: table.insert_many(as_batch(schema, batch)),
        }
        for door, write in doors.items():
            table = build(scenario)
            was_current = mirror_is_current(table)
            ids, error = attempt(lambda: write(table))
            assert error == expected_error, door
            if error is not None:
                assert surface(table) == untouched, door
                continue
            assert ids == expected_ids, door
            # One bump for the batch, where the loop bumps once per row.
            assert table.version == untouched["version"] + bool(batch), door
            assert oracle.version == untouched["version"] + len(batch)
            # A table whose mirror was current keeps it current; no other
            # builds one before its first scan, whichever door was used.
            assert mirror_is_current(table) == was_current, door
            got, want = surface(table), surface(oracle)
            for part in ("rows", "types", "len", "byte_size", "indexes"):
                assert got[part] == want[part], (door, part)
            assert table.column_data() == oracle.column_data(), door

    @settings(max_examples=300, deadline=None)
    @given(scenarios(), st.data())
    def test_stored_tuples_are_the_callers_when_nothing_was_coerced(self, scenario, data):
        schema = scenario["schema"]
        typed = st.tuples(
            *[
                st.one_of(st.none(), TYPED[column.column_type])
                if column.nullable
                else TYPED[column.column_type]
                for column in schema.columns
            ]
        )
        batch = data.draw(st.lists(typed, min_size=1, max_size=6))
        table = build(scenario)
        ids, error = attempt(lambda: table.insert_many(batch))
        if error is None:  # else: a duplicate key
            stored = list(map(table.row_by_id, ids))
            assert all(mine is given for mine, given in zip(stored, batch))
            # One value of another kind and every row is a new tuple, equal
            # to what coerce_row makes of it.
            sloppy = [tuple(map(str, batch[0]))] + batch[1:]
            other = build(scenario)
            ids, error = attempt(lambda: other.insert_many(sloppy))
            if error is None:
                stored = list(map(other.row_by_id, ids))
                assert stored == list(map(schema.coerce_row, sloppy))


# ----------------------------------------------------------------------
# SchemaMapping.transform against its per-row loop
# ----------------------------------------------------------------------
GLOBAL = TableSchema(
    "g", [Column(name, ColumnType.TEXT) for name in ("g0", "g1", "g2", "g3")]
)


def reference_transform(table_mapping, local_columns, rows):
    """The row-at-a-time loop ``transform`` ran before (the oracle)."""
    positions = []
    for local_position, local_column in enumerate(local_columns):
        global_column = table_mapping.map_column(local_column)
        if global_column is None:
            continue
        positions.append(
            (
                local_position,
                GLOBAL.column_index(global_column),
                table_mapping.value_map.get(global_column.lower()),
            )
        )
    transformed = []
    for row in rows:
        if len(row) != len(local_columns):
            raise SchemaMappingError(
                f"row width {len(row)} does not match local columns "
                f"{len(local_columns)}"
            )
        values = [None] * len(GLOBAL.columns)
        for local_position, global_position, value_map in positions:
            value = row[local_position]
            if value_map is not None and value in value_map:
                value = value_map[value]
            values[global_position] = value
        transformed.append(tuple(values))
    return transformed


TERMS = st.one_of(
    st.none(), st.integers(0, 3), st.sampled_from(["DE", "FR", "x", 1.0, True])
)
#: A list is unhashable: looking it up in a value map raises TypeError.
CELLS = st.one_of(TERMS, TERMS, st.just([1]))


@st.composite
def mappings(draw):
    local_columns = [f"l{i}" for i in range(draw(st.integers(0, 5)))]
    column_map = {
        local: draw(st.sampled_from(GLOBAL.column_names))
        for local in local_columns
        if draw(st.booleans())
    }
    value_map = {
        name: draw(st.dictionaries(TERMS.filter(lambda t: t is not None), TERMS, max_size=3))
        for name in GLOBAL.column_names
        if draw(st.booleans())
    }
    width = len(local_columns)
    rows = draw(st.lists(st.tuples(*[CELLS] * width), max_size=8))
    ragged = draw(st.lists(st.integers(0, 8), max_size=2))
    rows = [row + (0,) if i in ragged else row for i, row in enumerate(rows)]
    if draw(st.booleans()):
        rows = [list(row) for row in rows]
    return TableMapping("loc", "g", column_map, value_map), local_columns, rows


class TestTransformIsThePerRowLoop:
    @settings(max_examples=500, deadline=None)
    @given(mappings())
    def test_same_rows_or_same_first_error(self, drawn):
        table_mapping, local_columns, rows = drawn
        mapping = SchemaMapping({"g": GLOBAL})
        mapping.add_table_mapping(table_mapping)

        def outcome(run):
            try:
                return run()
            except (SchemaMappingError, TypeError) as error:
                return type(error), str(error)

        expected = outcome(lambda: reference_transform(table_mapping, local_columns, rows))
        got = outcome(lambda: mapping.transform("loc", local_columns, rows)[1])
        assert got == expected
        if isinstance(got, list):
            assert all(type(row) is tuple for row in got)
            assert [list(map(type, row)) for row in got] == [
                list(map(type, row)) for row in expected
            ]
