"""The plan driver's lowered expressions against interpreted ``Expr.evaluate``.

The driver lowers a join stage's residual, an aggregate job's group keys and
its aggregates once per job, into vector kernels.  These tests take the very
jobs it submits — their split-level ``map_fn`` and reducer-level
``reduce_fn`` — and replay each reducer group, on its own, against the
interpreted tree walk, row for row and error for error.  Every stage file
must also hold each row's text width beside it.
"""

import pytest

from repro.errors import SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.plan.driver import finalize_records
from repro.plan.sms import SmsPlanner
from repro.sqlengine import Column, ColumnType, Database, TableSchema
from repro.sqlengine.batch import text_widths
from repro.sqlengine.executor import _AggState
from repro.sqlengine.expr import RowLayout
from repro.sqlengine.planner import order_resolvable
from repro.tpch import (
    Q3,
    Q4,
    Q5,
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    TpchGenerator,
)

NUM_WORKERS = 3


@pytest.fixture(scope="module")
def tpch_cluster():
    cluster = HadoopDbCluster(NUM_WORKERS)
    cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
    generator = TpchGenerator(seed=23)
    for index in range(NUM_WORKERS):
        cluster.load_worker(index, generator.generate_peer(index))
    return cluster


def submitted_jobs(cluster, sql):
    """Run ``sql``; returns (plan, jobs submitted, result or the error raised).

    Each job comes back with its map tasks' outputs, recorded as it ran:
    the stage files they read are gone once the query ends.  Every file
    written must carry its rows' text widths.
    """
    jobs = []
    run_job = cluster.engine.run_job
    write = cluster.hdfs.write

    def capture(job):
        outputs = []
        map_split = job.map_fn

        def recording(data):
            outputs.append(map_split(data))
            return outputs[-1]

        job.map_fn = recording
        jobs.append((job, outputs))
        return run_job(job)

    def checked_write(path, records, size_bytes, writer_host, widths=None):
        assert widths == text_widths(records), path
        return write(path, records, size_bytes, writer_host, widths)

    cluster.engine.run_job = capture
    cluster.hdfs.write = checked_write
    try:
        outcome = cluster.execute(sql)
    except SqlExecutionError as error:
        outcome = error
    finally:
        del cluster.engine.run_job
        del cluster.hdfs.write
    return SmsPlanner(cluster._schemas).compile(sql), jobs, outcome


def reducer_groups(outputs):
    """The job's map outputs grouped: key -> (values, sizes), in map order."""
    groups = {}
    for output in outputs:
        for key, value, size in zip(output.keys, output.values, output.sizes):
            values, sizes = groups.setdefault(key, ([], []))
            values.append(value)
            sizes.append(size)
    return groups


def reduce_one_group(job, key, values, sizes):
    """The job's reducer run over one key group alone."""
    return job.reduce_fn([key] * len(values), values, sizes)


def outcome_of(thunk):
    try:
        return thunk()
    except SqlExecutionError as error:
        return type(error), str(error)


def interpreted_aggregates(aggregates, rows, layout):
    states = [_AggState(aggregate) for aggregate in aggregates]
    for row in rows:
        for state in states:
            state.accumulate(row, layout)
    return tuple(state.result() for state in states)


def check_against_interpreter(plan, jobs):
    """Every submitted job, group by group; returns rows a residual rejected."""
    rejected = 0
    columns = list(plan.base.columns)
    for stage, (job, outputs) in zip(plan.joins, jobs):
        columns = columns + stage.right.columns
        layout = RowLayout(columns)
        for key, (tagged_rows, sizes) in reducer_groups(outputs).items():
            assert key is not None

            def interpreted(tagged_rows=tagged_rows):
                lefts = [row for tag, row in tagged_rows if tag == "L"]
                rights = [row for tag, row in tagged_rows if tag == "R"]
                return [
                    left + right
                    for left in lefts
                    for right in rights
                    if stage.residual is None
                    or stage.residual.evaluate(left + right, layout) is True
                ]

            def lowered(key=key, tagged_rows=tagged_rows, sizes=sizes):
                rows, widths = reduce_one_group(job, key, tagged_rows, sizes)
                assert widths == text_widths(rows)
                return rows

            want = outcome_of(interpreted)
            assert outcome_of(lowered) == want
            if stage.residual is not None and isinstance(want, list):
                tags = [tag for tag, _ in tagged_rows]
                rejected += tags.count("L") * tags.count("R") - len(want)
    if plan.aggregate is not None and plan.joins:
        job, outputs = jobs[len(plan.joins)]
        layout = RowLayout(plan.columns_after_joins)
        for key, (rows, sizes) in reducer_groups(outputs).items():
            for row in rows:
                assert key == tuple(
                    expr.evaluate(row, layout)
                    for expr in plan.aggregate.group_exprs
                )
            assert reduce_one_group(job, key, rows, sizes) == (
                [key + interpreted_aggregates(plan.aggregate.aggregates, rows, layout)],
                None,
            )
    return rejected


class TestTpchStages:
    @pytest.mark.parametrize("query", [Q3, Q4, Q5])
    def test_lowered_stages_match_the_interpreter(self, tpch_cluster, query):
        plan, jobs, result = submitted_jobs(tpch_cluster, query())
        assert len(jobs) == plan.num_jobs and len(result.records) > 0
        rejected = check_against_interpreter(plan, jobs)
        # Q5's c_nationkey = s_nationkey is the residual that does real work.
        has_residual = any(stage.residual is not None for stage in plan.joins)
        assert has_residual == (query is Q5)
        assert (rejected > 0) == has_residual


A = TableSchema(
    "a", [Column("id", ColumnType.INTEGER), Column("v", ColumnType.FLOAT)]
)
B = TableSchema(
    "b",
    [
        Column("fid", ColumnType.INTEGER),
        Column("w", ColumnType.FLOAT),
        Column("g", ColumnType.INTEGER),
    ],
)
A_ROWS = [(k if k % 7 else None, k * 0.5) for k in range(1, 40)]
B_ROWS = [
    (k if k % 5 else None, float(k % 4), k % 3 if k % 11 else None)
    for k in range(1, 40)
]


@pytest.fixture()
def small_cluster():
    cluster = HadoopDbCluster(NUM_WORKERS)
    cluster.create_tables([A, B])
    for index in range(NUM_WORKERS):
        cluster.load_worker(
            index,
            {"a": A_ROWS[index::NUM_WORKERS], "b": B_ROWS[(index + 1) % 3 :: 3]},
        )
    return cluster


class TestNullsAndErrors:
    def test_null_join_and_group_keys(self, small_cluster):
        sql = (
            "SELECT b.g, COUNT(*), SUM(a.v), MIN(b.w) FROM a, b "
            "WHERE a.id = b.fid AND a.v > b.w GROUP BY b.g"
        )
        plan, jobs, result = submitted_jobs(small_cluster, sql)
        assert check_against_interpreter(plan, jobs) > 0
        oracle = Database()
        oracle.create_table(A).insert_many(A_ROWS)
        oracle.create_table(B).insert_many(B_ROWS)
        assert sorted(result.records, key=repr) == sorted(
            oracle.execute(sql).rows, key=repr
        )
        assert None in {row[0] for row in result.records}

    def test_a_residual_that_raises_raises_the_same(self, small_cluster):
        sql = (
            "SELECT a.id, b.w FROM a, b "
            "WHERE a.id = b.fid AND a.v / b.w > 1"
        )
        plan, jobs, error = submitted_jobs(small_cluster, sql)
        assert isinstance(error, SqlExecutionError)
        assert "division by zero" in str(error)
        # The failing job was captured before it ran: group by group, the
        # lowered residual raises where, and what, the interpreter raises.
        assert len(jobs) == 1
        check_against_interpreter(plan, jobs)


    def test_group_keys_raise_the_row_major_first_error(self):
        # Row 0 fails only its second key (1 / 0.0), row 1 only its first
        # ('x' + 1): keying the split one expression at a time would raise
        # row 1's error, row by row raises row 0's, as the oracle does.
        schema = TableSchema(
            "s",
            [
                Column("id", ColumnType.INTEGER),
                Column("v", ColumnType.FLOAT),
                Column("t", ColumnType.TEXT),
            ],
        )
        rows = [(1, 0.0, None), (2, 1.0, "x")]
        cluster = HadoopDbCluster(1)
        cluster.create_tables([schema])
        cluster.load_worker(0, {"s": rows})
        sql = (
            "SELECT t + 1, id / v, COUNT(DISTINCT id) FROM s "
            "GROUP BY t + 1, id / v"
        )
        plan, jobs, error = submitted_jobs(cluster, sql)
        assert [job.name.rsplit("-", 1)[-1] for job, _ in jobs] == ["aggregate"]
        oracle = Database(execution_mode="interpreted")
        oracle.create_table(schema).insert_many(rows)
        with pytest.raises(SqlExecutionError) as expected:
            oracle.execute(sql)
        assert isinstance(error, SqlExecutionError)
        assert str(error) == str(expected.value) == "division by zero"


# ----------------------------------------------------------------------
# finalize_records: the positional merge against the interpreted tree walk
# ----------------------------------------------------------------------
MERGE_SCHEMA = TableSchema(
    "a",
    [
        Column("id", ColumnType.INTEGER),
        Column("g", ColumnType.INTEGER),
        Column("v", ColumnType.FLOAT),
        Column("s", ColumnType.TEXT),
    ],
)
MERGE_RECORDS = [
    (k, k % 3, None if k == 4 else float(k * 7 % 5), "x" if k % 2 else None)
    for k in range(12)
]


def interpreted_finalize(plan, records, columns):
    """HAVING, projection and a tuple-key sort, one ``Expr.evaluate`` at a
    time; the sort reads the projected row if every key resolves there (the
    local planner's rule), else the record."""
    layout = RowLayout(columns)
    if plan.having is not None:
        records = [r for r in records if plan.having.evaluate(r, layout) is True]
    projected = [
        tuple(item.expr.evaluate(row, layout) for item in plan.items)
        for row in records
    ]
    names = [item.output_name().lower() for item in plan.items]
    out_layout = RowLayout(names)
    on_output = order_resolvable(plan.items, plan.order_by)

    def key_of(pair, item):
        row, out = pair
        if on_output:
            value = item.expr.evaluate(out, out_layout)
        else:
            value = item.expr.evaluate(row, layout)
        return (value is not None, value)  # NULLS FIRST

    pairs = list(zip(records, projected))
    for item in reversed(plan.order_by):
        pairs.sort(key=lambda pair: key_of(pair, item), reverse=not item.ascending)
    projected = [out for _, out in pairs]
    if plan.distinct:
        projected = list(dict.fromkeys(projected))
    return projected[: plan.limit], names


class TestFinalizeRecords:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id, g, v FROM a",  # bare columns: the itemgetter arm
            "SELECT id, v * 2 AS w, g + 1 FROM a ORDER BY w DESC, id",
            "SELECT id FROM a ORDER BY v, g DESC, id DESC",  # dropped keys
            "SELECT DISTINCT g, s FROM a ORDER BY v",
            "SELECT s, v FROM a ORDER BY s, v DESC LIMIT 5",  # NULL keys
            "SELECT g, SUM(v) AS t FROM a GROUP BY g HAVING SUM(v) > 5 ORDER BY t DESC",
        ],
    )
    def test_matches_the_interpreted_merge(self, sql):
        plan = SmsPlanner({"a": MERGE_SCHEMA}).compile(sql)
        if plan.aggregate is None:
            columns, records = ["a.id", "a.g", "a.v", "a.s"], MERGE_RECORDS
        else:
            columns = ["a.g", "sum(v)"]
            records = [(0, 9.0), (1, None), (2, 5.5), (3, 5.0)]
        assert finalize_records(plan, records, columns) == interpreted_finalize(
            plan, records, columns
        )

    def test_the_first_error_is_the_first_rows_leftmost(self):
        plan = SmsPlanner({"a": MERGE_SCHEMA}).compile(
            "SELECT id, g + s, v / 0 FROM a"
        )
        columns = ["a.id", "a.g", "a.v", "a.s"]
        # Row 0 has s NULL (no error in g + s), so its v / 0 raises first;
        # evaluated item-major, row 1's 'non-numeric arithmetic' would win.
        for merge in (finalize_records, interpreted_finalize):
            with pytest.raises(SqlExecutionError, match="division by zero"):
                merge(plan, MERGE_RECORDS, columns)
