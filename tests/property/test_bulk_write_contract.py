"""Property: the bulk-write door is a row-by-row insert loop, only atomic.

``Table.insert_many`` validates and prices a batch column by column; the
loop it replaced — ``insert`` per row — lives on here as the oracle.  For
generated schemas (NOT NULL, primary key, secondary index), tables that
already hold rows and perhaps saw a delete, and sloppy batches (ints in
FLOAT columns, numeric strings, ``bool``, ``date`` objects, NULLs, ragged
rows, duplicate keys, list rows, a generator argument), the rows-shaped
door and the :class:`ColumnBatch`-shaped door must leave what the loop
leaves — or, where the loop raises, raise its *first* error and leave the
table exactly as it was.

Every write at all is then checked against a reference model, a plain list
of tuples: random sequences of the table's writes must leave the same rows
in the same order, the same index answers and byte size, one version bump
per call that writes, nothing changed by a call that raises, and the column
lists a reader held before the call untouched.

``SchemaMapping.transform`` went column-major in the same change; its
per-row loop is the third oracle below.
"""

import datetime

from hypothesis import given, settings, strategies as st

from repro.core.schema_mapping import SchemaMapping, TableMapping
from repro.errors import SchemaMappingError, SqlCatalogError, SqlError, SqlExecutionError
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
        "deleted": draw(st.booleans()),
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
    if scenario["deleted"] and len(table):
        table.delete_row(0)
    return table


def surface(table):
    """Everything a write may touch."""
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
        "rows": list(table.rows()),
        "types": [list(map(type, row)) for row in table.rows()],
        "len": len(table),
        "byte_size": table.byte_size,
        "indexes": indexes,
        "version": table.version,
        "columns": [list(column) for column in table.column_data()],
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
            ids, error = attempt(lambda: write(table))
            assert error == expected_error, door
            if error is not None:
                assert surface(table) == untouched, door
                continue
            assert ids == expected_ids, door
            # One bump for the batch, where the loop bumps once per row.
            assert table.version == untouched["version"] + bool(batch), door
            assert oracle.version == untouched["version"] + len(batch)
            got, want = surface(table), surface(oracle)
            for part in ("rows", "types", "len", "byte_size", "indexes", "columns"):
                assert got[part] == want[part], (door, part)


# ----------------------------------------------------------------------
# Every write against a plain list of tuples
# ----------------------------------------------------------------------
MODEL_SCHEMA = TableSchema(
    "m",
    [
        Column("k", ColumnType.INTEGER, nullable=False),
        Column("v", ColumnType.FLOAT),
        Column("s", ColumnType.TEXT),
    ],
    primary_key="k",
)
MODEL_ROW = st.tuples(
    st.one_of(st.integers(0, 6), st.just("x"), st.none()),  # "x", None: refused
    st.sampled_from([None, 0.0, 1.5, 2, "2.5"]),
    st.sampled_from([None, "a", "b"]),
)
PREDICATES = {
    "k < 3": lambda row: row[0] < 3,
    "v is NULL": lambda row: row[1] is None,
    "s = 'a'": lambda row: row[2] == "a",
}


class Model:
    """The reference: a list of coerced tuples and ``name -> (position,
    unique)`` per index.  Each write either raises the error class the
    table must raise, changing nothing, or returns how many version bumps
    it owes (0 or 1)."""

    def __init__(self):
        self.rows = []
        self.indexes = {"pk_m": (0, True), "ix_v": (1, False)}

    def _admit(self, rows, leaving=()):
        """``rows`` coerced, or the first error inserting them one by one
        (after the rows at ``leaving`` left) would raise."""
        kept = [row for i, row in enumerate(self.rows) if i not in set(leaving)]
        admitted = []
        for row in rows:
            row = MODEL_SCHEMA.coerce_row(row)
            for position, unique in self.indexes.values():
                key = row[position]
                if unique and key is not None and key in [r[position] for r in kept]:
                    raise SqlExecutionError(f"duplicate key {key!r}")
            kept.append(row)
            admitted.append(row)
        return admitted

    def insert_many(self, rows):
        self.rows += self._admit(rows)
        return int(bool(rows))

    def delete_row(self, row_id):
        if not 0 <= row_id < len(self.rows):
            raise SqlExecutionError(f"row id out of range: {row_id}")
        del self.rows[row_id]
        return 1

    def delete_where(self, predicate):
        kept = [row for row in self.rows if not predicate(row)]
        bump = int(len(kept) < len(self.rows))
        self.rows = kept
        return bump

    def apply_delta(self, deleted, inserted):
        if not deleted:
            return self.insert_many(inserted)
        victims = []
        for row in deleted:
            free = [
                i for i, r in enumerate(self.rows) if r == row and i not in victims
            ]
            if not free:
                raise SqlExecutionError(f"no live row to delete: {row!r}")
            victims.append(free[0])
        admitted = self._admit(inserted, victims)
        self.rows = [r for i, r in enumerate(self.rows) if i not in victims]
        self.rows += admitted
        return 1

    def update_rows(self, updates):
        news = []
        for row_id, values in updates:
            if not 0 <= row_id < len(self.rows):
                raise SqlExecutionError(f"row id out of range: {row_id}")
            news.append((row_id, MODEL_SCHEMA.coerce_row(values)))
        if not news:
            return 0
        leaving = {row_id for row_id, _ in news}
        for position, unique in self.indexes.values():
            taken = [r[position] for i, r in enumerate(self.rows) if i not in leaving]
            for _, row in news:
                if unique and row[position] is not None and row[position] in taken:
                    raise SqlExecutionError(f"duplicate key {row[position]!r}")
                taken.append(row[position])
        for row_id, row in news:
            self.rows[row_id] = row
        return 1

    def truncate(self):
        self.rows = []
        return 1

    def create_index(self, name, column, unique):
        if name in self.indexes:
            raise SqlCatalogError(f"index already exists: {name!r}")
        position = MODEL_SCHEMA.column_index(column)
        keys = [row[position] for row in self.rows if row[position] is not None]
        if unique and len(set(keys)) < len(keys):
            raise SqlExecutionError("unique index violated")
        self.indexes[name] = (position, unique)
        return 1

    def surface(self):
        indexes = {}
        for name, (position, _) in self.indexes.items():
            entries = sorted(
                (row[position], i)
                for i, row in enumerate(self.rows)
                if row[position] is not None
            )
            keys = sorted({key for key, _ in entries})
            indexes[name] = (
                keys,
                [[i for key, i in entries if key == k] for k in keys],
                [i for _, i in entries],
                [[i for key, i in entries if key > k] for k in keys],
            )
        return {
            "rows": [(row, list(map(type, row))) for row in self.rows],
            "indexes": indexes,
            "byte_size": sum(
                column.column_type.byte_size(value)
                for row in self.rows
                for column, value in zip(MODEL_SCHEMA.columns, row)
            ),
            "columns": [list(column) for column in zip(*self.rows)] or [[], [], []],
        }


def table_surface(table):
    indexes = {}
    for name, index in table.indexes.items():
        keys = list(index.keys())
        indexes[name] = (
            keys,
            [index.lookup(key) for key in keys],
            list(index.range_scan()),
            [list(index.range_scan(low=key, low_inclusive=False)) for key in keys],
        )
    return {
        "rows": [(row, list(map(type, row))) for row in table.rows()],
        "indexes": indexes,
        "byte_size": table.byte_size,
        "columns": [list(column) for column in table.column_data()],
    }


@st.composite
def writes(draw, rows):
    """One write to a table holding ``rows``: ``(name, args)``, with
    arguments that may be refused."""
    size = len(rows)
    batch = st.lists(MODEL_ROW, max_size=4)
    name = draw(
        st.sampled_from(
            ["insert", "insert_many", "insert_many", "delete_row", "delete_where",
             "apply_delta", "apply_delta", "update_rows", "truncate", "create_index"]
        )
    )
    if name == "insert":
        return name, (draw(MODEL_ROW),)
    if name == "insert_many":
        return name, (draw(batch),)
    if name == "delete_row":
        return name, (draw(st.integers(-1, size)),)
    if name == "delete_where":
        return name, (draw(st.sampled_from(sorted(PREDICATES))),)
    if name == "apply_delta":
        return name, (draw(st.lists(st.integers(0, size), max_size=3)), draw(batch))
    if name == "update_rows":
        # Ids in range, but for an empty table's 0 (refused).
        ids = draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=3, unique=True))
        news = [draw(MODEL_ROW) for _ in ids]
        # Often the row keeps its key, so the rewrite is not refused.
        news = [
            rows[i][:1] + new[1:] if i < size and draw(st.booleans()) else new
            for i, new in zip(ids, news)
        ]
        return name, (list(zip(ids, news)),)
    if name == "create_index":
        return name, (draw(st.sampled_from(["ix_a", "ix_b"])),
                      draw(st.sampled_from(["v", "s", "k"])), draw(st.booleans()))
    return name, ()


def run(target, name, args, rows):
    """Apply one drawn write to the table or the model.  Row-position
    arguments of ``apply_delta`` name the model's current rows (an id past
    the end names a row that is not there)."""
    if name == "insert":
        return target.insert_many(list(args)) if isinstance(target, Model) else target.insert(*args)
    if name == "delete_where":
        return target.delete_where(PREDICATES[args[0]])
    if name == "apply_delta":
        picked, inserted = args
        deleted = [rows[i] if i < len(rows) else (99, None, None) for i in picked]
        return target.apply_delta(deleted, inserted)
    return getattr(target, name)(*args)


class TestEveryWriteAgreesWithAListOfTuples:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_writes_leave_what_the_model_leaves(self, data):
        table, model = Table(MODEL_SCHEMA), Model()
        table.create_index("ix_v", "v")
        for _ in range(data.draw(st.integers(1, 20))):
            rows = list(model.rows)
            name, args = data.draw(writes(rows))
            before, version = table_surface(table), table.version
            held = table.column_data()
            copies = [list(column) for column in held]
            try:
                bump, expected = run(model, name, args, rows), None
            except SqlError as error:
                bump, expected = 0, type(error)
            try:
                run(table, name, args, rows)
                got = None
            except SqlError as error:
                got = type(error)
            assert got == expected, (name, args)
            if got is not None:
                assert table_surface(table) == before, (name, args)
            assert table.version == version + bump, (name, args)
            assert table_surface(table) == model.surface(), (name, args)
            # A reader's lists keep the rows it was given: only an append
            # writes into them, and only past their end.
            assert [column[: len(copies[0])] for column in held] == copies, name


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
        got = outcome(lambda: mapping.transform("loc", local_columns, rows)[1].rows)
        assert got == expected
        if isinstance(got, list):
            assert all(type(row) is tuple for row in got)
            assert [list(map(type, row)) for row in got] == [
                list(map(type, row)) for row in expected
            ]
