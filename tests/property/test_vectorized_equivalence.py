"""Property: vector kernels are indistinguishable from per-row evaluation.

Random expression trees over random row batches — including NULLs, mixed
types, unresolvable columns, and unknown functions — must produce, for every
row, the same value or the same deferred error that ``Expr.evaluate``
produces for that row; and whole queries must return identical rows,
identical :class:`ExecStats`, and identical first errors in all three
``Database`` execution modes.  This is the load-bearing invariant behind
``execution_mode="vectorized"``: batching may only change *speed*, never a
single observable outcome.
"""

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.errors import SqlExecutionError
from repro.sqlengine import Database, EXECUTION_MODES
from repro.sqlengine.compile import interpreted_evaluator
from repro.sqlengine.expr import RowLayout
from repro.sqlengine.vectorize import (
    compile_vector_evaluator,
    compile_vector_filter,
)
from tests.property.test_compile_equivalence import (
    LAYOUT,
    _assert_same_outcome,
    _outcome,
    expr_trees,
    rows,
)


def _columns(batch):
    if not batch:
        return [[] for _ in LAYOUT.columns]
    return [list(col) for col in zip(*batch)]


def _kind(exc):
    if isinstance(exc, SqlExecutionError):
        return "sql-error"
    if isinstance(exc, TypeError):
        return "type-error"
    return type(exc).__name__


def _check_value_kernel(expr, batch, sel):
    """The kernel's per-row outcome over ``sel`` matches Expr.evaluate."""
    kernel = compile_vector_evaluator(expr, LAYOUT)
    values, errs = kernel(_columns(batch), sel)
    assert len(values) == len(sel)
    err_rows = [row for row, _ in errs]
    assert err_rows == sorted(err_rows), "deferred errors must be row-sorted"
    first_err = {}
    for row, exc in errs:
        first_err.setdefault(row, exc)
    reference = interpreted_evaluator(expr, LAYOUT)
    for position, row_index in enumerate(sel):
        expected = _outcome(reference, batch[row_index])
        if row_index in first_err:
            exc = first_err[row_index]
            assert expected == (_kind(exc), str(exc)), (expected, exc)
        else:
            _assert_same_outcome(expected, ("value", values[position]))


class TestValueKernel:
    @settings(max_examples=250)
    @given(expr_trees, st.lists(rows, max_size=8))
    def test_dense_batch_matches_per_row_interpreted(self, expr, batch):
        _check_value_kernel(expr, batch, range(len(batch)))

    @settings(max_examples=150)
    @given(expr_trees, st.lists(rows, min_size=1, max_size=8), st.data())
    def test_sparse_selection_matches_per_row_interpreted(
        self, expr, batch, data
    ):
        # Progressive narrowing hands kernels strict subsets; rows outside
        # the selection must neither contribute values nor errors.
        sel = sorted(
            data.draw(st.sets(st.sampled_from(range(len(batch)))))
        )
        _check_value_kernel(expr, batch, sel)

    @given(expr_trees)
    def test_empty_batch_is_silent(self, expr):
        values, errs = compile_vector_evaluator(expr, LAYOUT)(
            _columns([]), range(0)
        )
        assert values == [] and errs == []


class TestFilterKernel:
    @settings(max_examples=250)
    @given(expr_trees, st.lists(rows, max_size=8))
    def test_passing_rows_and_first_error_match_reference(self, expr, batch):
        kernel = compile_vector_filter(expr, LAYOUT)
        passing, errs = kernel(_columns(batch), range(len(batch)))
        reference = interpreted_evaluator(expr, LAYOUT)
        outcomes = [_outcome(reference, row) for row in batch]
        erroring = [
            index for index, (kind, _) in enumerate(outcomes)
            if kind != "value"
        ]
        err_rows = [row for row, _ in errs]
        assert err_rows == sorted(err_rows)
        if errs:
            # The executor raises errs[0]; it must be the first row the
            # reference loop would have raised on, with the same error.
            row, exc = errs[0]
            assert erroring and row == erroring[0]
            assert outcomes[row] == (_kind(exc), str(exc))
        else:
            assert not erroring
            assert list(passing) == [
                index
                for index, (_, value) in enumerate(outcomes)
                if value is True
            ]


# ----------------------------------------------------------------------
# Whole-query equivalence across all three execution modes
# ----------------------------------------------------------------------
_CREATE = "CREATE TABLE t (a INTEGER, b FLOAT, c TEXT)"
_QUERIES = (
    "SELECT * FROM t",
    "SELECT a, b * 2 + 1, upper(c) FROM t",
    "SELECT a FROM t WHERE a > 3 AND (b < 10.0 OR c = 'red')",
    "SELECT a FROM t WHERE a = 5",
    "SELECT c, COUNT(*), SUM(a), AVG(b), MIN(a), MAX(b) FROM t GROUP BY c",
    "SELECT COUNT(DISTINCT c), SUM(b) FROM t",
    "SELECT DISTINCT c FROM t ORDER BY c LIMIT 3",
    "SELECT a, b FROM t ORDER BY c ASC, a DESC LIMIT 5",
    "SELECT l.a, r.b FROM t l, t r WHERE l.a = r.a AND l.b < r.b",
    "SELECT l.a, r.a FROM t l LEFT JOIN t r ON l.a = r.a ORDER BY l.a, r.a",
    # Error paths: every mode must raise the same first error.
    "SELECT a + c FROM t",
    "SELECT a FROM t WHERE b + c > 1",
    "SELECT SUM(c) FROM t",
    "SELECT a / 0 FROM t",
)

table_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        st.one_of(
            st.none(),
            st.floats(min_value=-20, max_value=20, allow_nan=False),
        ),
        st.one_of(st.none(), st.sampled_from(["red", "green", ""])),
    ),
    max_size=24,
)


def result_surface(result):
    """Everything a :class:`QueryResult` exposes, as plain data.

    The row modes build their batch from rows and derive vectors; the
    vectorized mode builds it from vectors and derives rows.  Comparing the
    whole surface checks both derivations against each other.
    """
    return {
        "columns": result.columns,
        "qualified_columns": result.qualified_columns,
        "rows": result.rows,
        "iterated": list(result),
        "vectors": [list(vector) for vector in result.batch.vectors],
        "by_name": [result.column(name) for name in result.columns],
        "len": len(result),
        "rowcount": result.rowcount,
        "byte_size": result.byte_size,
        "stats": asdict(result.stats),
    }


def _run(mode, data_rows, sql):
    db = Database(execution_mode=mode)
    db.execute(_CREATE)
    db.execute("CREATE INDEX idx_a ON t (a)")
    if data_rows:
        db.table("t").insert_many(data_rows)
    try:
        result = db.execute(sql)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", result_surface(result))


class TestDatabaseModes:
    @settings(max_examples=40, deadline=None)
    @given(table_rows, st.sampled_from(_QUERIES))
    def test_all_modes_agree_end_to_end(self, data_rows, sql):
        reference = _run("interpreted", data_rows, sql)
        for mode in EXECUTION_MODES[1:]:
            assert _run(mode, data_rows, sql) == reference, (mode, sql)
