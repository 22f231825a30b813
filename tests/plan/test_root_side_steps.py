"""The shared root-side steps against ``Database.execute`` on the same rows.

``aggregate_rows`` (raw rows grouped and aggregated at a coordinator) and
``merge_partial_rows`` / ``partial_merger`` (owners' partial aggregates
merged) are what every executor runs; each must answer what one local
database answers — NULL group keys, groups whose values are all NULL (AVG
over a zero count), and no input at all, grouped versus scalar — and raise
the error it raises first.
"""

import pytest

from repro.errors import SqlExecutionError
from repro.plan import (
    SmsPlanner,
    aggregate_rows,
    finalize_records,
    merge_partial_rows,
    partial_aggregate_plan,
    partial_merger,
)
from repro.sqlengine import Column, ColumnType, Database, TableSchema

T = TableSchema(
    "t",
    [
        Column("g", ColumnType.INTEGER),
        Column("h", ColumnType.TEXT),
        Column("v", ColumnType.FLOAT),
        Column("n", ColumnType.INTEGER),
    ],
)
# g is NULL for every fifth row; group g = 2 holds only NULL v (AVG over a
# zero count); halves add exactly, so partial and whole sums are equal.
ROWS = [
    (
        None if k % 5 == 0 else k % 4,
        "x" if k % 3 else None,
        None if k % 4 == 2 else k * 0.5,
        k % 7 if k % 6 else None,
    )
    for k in range(1, 41)
]
OWNERS = 3

DECOMPOSABLE = [
    "SELECT g, COUNT(*), SUM(v), AVG(v), MIN(n), MAX(n), COUNT(v) FROM t GROUP BY g",
    "SELECT g, h, AVG(v), COUNT(n) FROM t GROUP BY g, h",
    "SELECT COUNT(*), SUM(v), AVG(v), MIN(n), MAX(v) FROM t",
    "SELECT AVG(v), COUNT(v), COUNT(*) FROM t WHERE g = 2",
    "SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(v) > 20",
    # nothing qualifies: a grouped aggregate has no row, a scalar one has one
    "SELECT g, COUNT(*), AVG(v) FROM t WHERE n > 99 GROUP BY g",
    "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(n) FROM t WHERE n > 99",
    "SELECT COUNT(*), SUM(v) FROM t WHERE n > 99 HAVING COUNT(*) > 0",
]
DISTINCT = [  # no partial form: raw rows only
    "SELECT g, COUNT(DISTINCT n), SUM(v) FROM t GROUP BY g",
    "SELECT COUNT(DISTINCT n) FROM t",
    "SELECT COUNT(DISTINCT n), MAX(v) FROM t WHERE n > 99",
]


def database(rows):
    db = Database()
    db.create_table(T).insert_many(rows)
    return db


def by_repr(rows):
    return sorted(rows, key=repr)


class TestAgainstTheLocalDatabase:
    @pytest.mark.parametrize("sql", DECOMPOSABLE + DISTINCT)
    def test_aggregate_rows(self, sql):
        plan = SmsPlanner({"t": T}).compile(sql)
        fetched = list(database(ROWS).execute(plan.base.sql).rows)
        records, columns = aggregate_rows(
            plan.aggregate, fetched, plan.base.columns
        )
        assert columns == plan.aggregate.output_columns
        got, _ = finalize_records(plan, records, columns)
        assert by_repr(got) == by_repr(database(ROWS).execute(sql).rows)

    @pytest.mark.parametrize("sql", DECOMPOSABLE)
    def test_merged_partials(self, sql):
        plan = SmsPlanner({"t": T}).compile(sql)
        partial_sql = partial_aggregate_plan(plan).sql
        # zero owners, one owner, and the rows dealt over three
        for owners in ([], [ROWS], [ROWS[i::OWNERS] for i in range(OWNERS)]):
            shipped = [
                row
                for rows in owners
                for row in database(rows).execute(partial_sql).rows
            ]
            records, columns = merge_partial_rows(plan.aggregate, shipped)
            got, _ = finalize_records(plan, records, columns)
            kept = [row for rows in owners for row in rows]
            assert by_repr(got) == by_repr(database(kept).execute(sql).rows)


def test_one_merger_serves_every_group():
    plan = SmsPlanner({"t": T}).compile(
        "SELECT g, SUM(v), AVG(v), MIN(n), COUNT(*) FROM t GROUP BY g"
    )
    merge = partial_merger(plan.aggregate.partials)
    # partial rows: SUM(v) | SUM(v), COUNT(v) for AVG | MIN(n) | COUNT(*)
    assert merge([(1.0, 1.0, 2, 5, 2), (None, None, 0, None, 1)]) == (
        1.0, 0.5, 5, 3,
    )
    assert merge([(None, None, 0, None, 0)]) == (None, None, None, 0)


def test_aggregate_rows_raises_the_local_databases_first_error():
    # Row 0's key is NULL and its SUM divides by zero; row 1's key is
    # 'x' + 1.  Row by row, the division fails first — computing every key
    # before any aggregate would raise row 1's error instead.
    rows = [(1, None, 0.0, None), (2, "x", 1.0, None)]
    sql = "SELECT h + 1, COUNT(DISTINCT g), SUM(g / v) FROM t GROUP BY h + 1"
    for mode in ("interpreted", "vectorized"):
        db = database(rows)
        db.execution_mode = mode
        with pytest.raises(SqlExecutionError, match="^division by zero$"):
            db.execute(sql)
    plan = SmsPlanner({"t": T}).compile(sql)
    fetched = list(database(rows).execute(plan.base.sql).rows)
    with pytest.raises(SqlExecutionError, match="^division by zero$"):
        aggregate_rows(plan.aggregate, fetched, plan.base.columns)
