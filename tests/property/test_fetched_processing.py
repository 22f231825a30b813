"""Property: the query peer's final plan over the fetched batches is the
staging database it replaced.

The paper's query peer stages fetched tuples in MemTables, bulk-inserts
them into its local MySQL and runs the query there (§5.2).  The basic
engine used to build exactly that for every query — a fresh ``Database``,
a ``MemTable`` per table, ``execute_select`` — and now binds the final plan
to each binding's batches instead, counting the spills by arithmetic.  That
old path lives on here as the oracle: for generated multi-owner batches,
masked NULLs in NOT NULL columns, mistyped values and MemTable capacities
from 64 B to 100 MB, the result (rows, their order, column names), the
``ExecStats`` the simulated clock is charged from, the spill and row counts
and the first error are the same.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine_basic import _process_fetched
from repro.plan.sms import SmsPlanner
from repro.sqlengine import (
    Column,
    ColumnBatch,
    ColumnType,
    Database,
    MemTable,
    TableSchema,
)

INTEGER, FLOAT, TEXT, DATE = (
    ColumnType.INTEGER,
    ColumnType.FLOAT,
    ColumnType.TEXT,
    ColumnType.DATE,
)
SCHEMAS = {
    schema.name: schema
    for schema in (
        TableSchema(
            "r",
            [
                Column("k", INTEGER, nullable=False),
                Column("g", TEXT),
                Column("x", FLOAT, nullable=False),
                Column("d", DATE),
            ],
            primary_key="k",
        ),
        TableSchema(
            "s",
            [
                Column("k", INTEGER),
                Column("y", FLOAT),
                Column("t", TEXT, nullable=False),
            ],
        ),
        TableSchema("u", [Column("g", TEXT), Column("z", INTEGER)]),
    )
}
QUERIES = [
    "SELECT r.k, r.x, s.y FROM r, s WHERE r.k = s.k",
    "SELECT r.g, COUNT(*), SUM(s.y), AVG(r.x) FROM r, s WHERE r.k = s.k "
    "GROUP BY r.g ORDER BY r.g",
    "SELECT r.k, s.t FROM r, s WHERE r.k = s.k AND r.x > s.y "
    "ORDER BY r.k DESC, s.t LIMIT 5",
    "SELECT DISTINCT r.g, u.z FROM r, u WHERE r.g = u.g",
    "SELECT r.g, SUM(r.x * s.y) AS v FROM r, s, u WHERE r.k = s.k "
    "AND r.g = u.g AND s.y < u.z GROUP BY r.g HAVING COUNT(*) > 1 ORDER BY v",
    "SELECT * FROM r JOIN s ON r.k = s.k",
    "SELECT r.k, s.t FROM r JOIN s ON r.k = s.k WHERE r.d > '1995-01-01' "
    "ORDER BY s.t",
    "SELECT COUNT(*), MIN(s.t), MAX(r.d) FROM r, s WHERE r.k = s.k",
    "SELECT r.k, s.t * 2 FROM r, s WHERE r.k = s.k",
    "SELECT r.g, u.z FROM r, u WHERE r.g = u.g AND r.k + u.z > 3 "
    "ORDER BY r.g, u.z",
]
PLANNER = SmsPlanner(SCHEMAS)
TYPED = {
    INTEGER: st.integers(0, 4),
    FLOAT: st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.5, 4.0]),
    TEXT: st.sampled_from(["a", "b", "c", "ab"]),
    DATE: st.sampled_from(["1994-01-01", "1995-03-15", "1998-12-01"]),
}
#: Anything a sloppy producer might ship: some coerce, some do not.
LOOSE = st.one_of(
    st.booleans(),
    st.integers(-2, 3),
    st.floats(min_value=-2, max_value=3, allow_nan=False),
    st.sampled_from(["7", "2.5", "x", "", "1995-03-15", "1995-3-15"]),
)
CAPACITIES = st.sampled_from(
    [64, 65, 100, 333, 1000, 10_000, 1_000_000, 100 * 1024 * 1024]
)


def staging_oracle(plan, fetched, capacity):
    """The processing phase as it was: a fresh staging ``Database`` with
    one all-nullable table per binding, every batch pushed through a
    ``MemTable``, and the residual statement planned and run there."""
    staging = Database("staging")
    spills = rows = 0
    for local_plan in plan.local_plans:
        table = SCHEMAS[local_plan.table]
        columns = [
            table.column(name.rsplit(".", 1)[-1]) for name in local_plan.columns
        ]
        memtable = MemTable(
            staging.create_table(
                TableSchema(
                    local_plan.table, [Column(c.name, c.column_type) for c in columns]
                )
            ),
            capacity_bytes=capacity,
        )
        for batch in fetched[local_plan.binding]:
            memtable.extend(batch)
            rows += len(batch)
        memtable.flush()
        spills += memtable.spill_count
    statement = dataclasses.replace(plan.statement, where=plan.residual_where)
    return staging.execute_select(statement), spills, rows


def outcome(run):
    """Everything the engine reads from a processing phase, or its error."""
    try:
        result, spills, rows = run()
    except Exception as error:  # the first error, whatever it is
        return type(error), str(error)
    return (
        result.columns,
        result.batch.columns,
        result.rows,
        dataclasses.asdict(result.stats),
        spills,
        rows,
    )


@st.composite
def fetched_batches(draw, plan, mistyped):
    """One to three owners' batches per binding (or none at all), NULLs in
    every column whatever the schema says: masking can null any."""
    fetched = {}
    for local_plan in plan.local_plans:
        table = SCHEMAS[local_plan.table]
        kinds = [
            table.column(name.rsplit(".", 1)[-1]).column_type
            for name in local_plan.columns
        ]
        row = st.tuples(
            *[
                st.one_of(
                    TYPED[kind], TYPED[kind], st.none(), *([LOOSE] if mistyped else [])
                )
                for kind in kinds
            ]
        )
        batches = []
        # Mostly at least one owner with rows; now and then maybe none.
        least = 1 if draw(st.integers(0, 4)) else 0
        owners = st.lists(
            st.lists(row, min_size=least, max_size=10), min_size=least, max_size=3
        )
        for rows in draw(owners):
            if draw(st.booleans()):
                vectors = [list(c) for c in zip(*rows)] or [[] for _ in kinds]
                batches.append(ColumnBatch(local_plan.columns, vectors, len(rows)))
            else:
                batches.append(ColumnBatch.from_rows(local_plan.columns, rows))
        fetched[local_plan.binding] = batches
    return fetched


def snapshot(fetched):
    return {
        binding: [(batch.columns, list(map(list, batch.vectors))) for batch in batches]
        for binding, batches in fetched.items()
    }


class TestProcessingOverFetchedBatches:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(QUERIES),
        st.sampled_from([False, False, True]),  # mistyped values, sometimes
        CAPACITIES,
        st.data(),
    )
    def test_matches_the_staging_database(self, sql, mistyped, capacity, data):
        _, plan = PLANNER.compile_text(sql)
        fetched = data.draw(fetched_batches(plan, mistyped))
        before = snapshot(fetched)
        expected = outcome(lambda: staging_oracle(plan, fetched, capacity))
        got = outcome(lambda: _process_fetched(PLANNER, plan, fetched, capacity))
        assert got == expected
        assert snapshot(fetched) == before  # read, never written

    @pytest.mark.parametrize(
        "row",
        [
            (1, 2.5),  # 16 bytes typed and on the wire: the 4th row fills 64
            ("7", "2.5"),  # 12 on the wire, 16 typed once coerced
        ],
    )
    def test_spills_at_the_byte_the_memtable_fills(self, row):
        _, plan = PLANNER.compile_text(QUERIES[0])
        fetched = {
            "r": [ColumnBatch.from_rows(plan.base.columns, [row] * 5)],
            "s": [],
        }
        got = outcome(lambda: _process_fetched(PLANNER, plan, fetched, 64))
        assert got == outcome(lambda: staging_oracle(plan, fetched, 64))
        assert got[4] == 2  # after the 4th row, and the 5th at the close

    def test_the_first_bad_row_names_the_error(self):
        # Row 0's FLOAT fails before row 1's INTEGER: row-major, as a spill
        # into a table reports it, not column by column.
        _, plan = PLANNER.compile_text(QUERIES[0])
        fetched = {
            "r": [ColumnBatch(plan.base.columns, [[1, "x"], ["y", 2.0]], 2)],
            "s": [],
        }
        got = outcome(lambda: _process_fetched(PLANNER, plan, fetched, 64))
        assert got == outcome(lambda: staging_oracle(plan, fetched, 64))
        assert got[0].__name__ == "SqlTypeError" and "'y'" in got[1]
