"""Property: vector kernels are indistinguishable from per-row evaluation.

Random expression trees over random row batches — including NULLs, mixed
types, unresolvable columns, and unknown functions — must produce, for every
row, the same value or the same deferred error that ``Expr.evaluate``
produces for that row; and whole queries must return identical rows,
identical :class:`ExecStats`, and identical first errors in both
``Database`` execution modes.  This is the load-bearing invariant behind
``execution_mode="vectorized"``: batching may only change *speed*, never a
single observable outcome.
"""

from dataclasses import asdict

from hypothesis import example, given, settings, strategies as st

from repro.errors import SqlExecutionError
from repro.sqlengine import Column, ColumnType, Database, TableSchema
from repro.sqlengine.executor import Executor, interpreted_evaluator
from repro.sqlengine.expr import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    RowLayout,
    UnaryOp,
)
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import Planner
from repro.sqlengine.vectorize import (
    compile_vector_evaluator,
    compile_vector_filter,
)
from repro.sqlengine.vexecutor import VectorizedExecutor
from tests.helpers import result_surface

COLUMNS = ("a", "b", "c")
LAYOUT = RowLayout(COLUMNS)

_BINARY_OPS = (
    "and", "or", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
)

literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.sampled_from(["red", "green", "", "r%"]),
)

# "missing" is deliberate: the layout cannot resolve it, so the interpreted
# path raises per row and the kernels must defer the identical error.
leaves = st.one_of(
    literals.map(Literal),
    st.sampled_from(COLUMNS + ("missing",)).map(ColumnRef),
)


def _extend(children):
    whens = st.lists(
        st.tuples(children, children), min_size=1, max_size=2
    ).map(tuple)
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(_BINARY_OPS), children, children),
        st.builds(UnaryOp, st.sampled_from(("not", "-")), children),
        st.builds(Between, children, children, children, st.booleans()),
        st.builds(
            InList,
            children,
            st.lists(children, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(
            Like,
            children,
            st.sampled_from(("r%", "%e%", "__", "%")),
            st.booleans(),
        ),
        st.builds(IsNull, children, st.booleans()),
        st.builds(CaseWhen, whens, st.one_of(st.none(), children)),
        # "nope" is an unknown function: both paths must raise identically.
        st.builds(
            FuncCall,
            st.sampled_from(("upper", "lower", "abs", "length", "nope")),
            st.tuples(children),
        ),
    )


expr_trees = st.recursive(leaves, _extend, max_leaves=10)

rows = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-20, max_value=20)),
    st.one_of(
        st.none(), st.floats(min_value=-50, max_value=50, allow_nan=False)
    ),
    st.one_of(st.none(), st.sampled_from(["red", "green", ""])),
)


def _outcome(evaluator, row):
    """What a caller observes: the value, or the error kind and message."""
    try:
        return ("value", evaluator(row))
    except SqlExecutionError as exc:
        return ("sql-error", str(exc))
    except TypeError as exc:
        # BETWEEN over incomparable types propagates the raw TypeError in
        # the interpreted path; the kernels must do the same.
        return ("type-error", str(exc))


def _assert_same_outcome(expected, actual):
    assert expected[0] == actual[0], (expected, actual)
    if expected[0] == "value":
        assert type(expected[1]) is type(actual[1]), (expected, actual)
        assert expected[1] == actual[1] or (
            expected[1] != expected[1] and actual[1] != actual[1]
        ), (expected, actual)
    else:
        assert expected[1] == actual[1], (expected, actual)


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
# Whole-query equivalence across both execution modes
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
        assert _run("vectorized", data_rows, sql) == reference, sql


# ----------------------------------------------------------------------
# Index-access scans: late-materialised rows, the proven conjunct dropped
# ----------------------------------------------------------------------
_INDEX_WHERES = (
    "a = 3",
    "a > 3",
    "a <= 5",
    "4 <= a",
    "a < 6",
    "a BETWEEN 2 AND 6",
    "a BETWEEN 6 AND 2",
)
_SECOND_CONJUNCTS = ("", " AND b > 0.0", " AND c LIKE 'r%1'")

index_keys = st.integers(min_value=0, max_value=8)
#: Inserts (NULL and duplicate keys included), deletes that leave tombstones,
#: and updates that move a row id to another key's bucket (so a key can be
#: deleted and re-inserted, and ids within a key need not ascend).
index_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.one_of(st.none(), index_keys),
            st.one_of(st.none(), st.floats(min_value=-20, max_value=20)),
        ),
        st.tuples(st.just("delete"), index_keys),
        st.tuples(st.just("update"), index_keys, index_keys),
    ),
    max_size=30,
)


def _run_ops(mode, ops, sql, indexed=True):
    db = Database(execution_mode=mode)
    db.execute(_CREATE)
    if indexed:
        db.execute("CREATE INDEX idx_a ON t (a)")
    for serial, op in enumerate(ops):
        if op[0] == "insert":
            # ``c`` is unique per row, which makes row order observable.
            db.table("t").insert((op[1], op[2], f"r{serial}"))
        elif op[0] == "delete":
            db.execute(f"DELETE FROM t WHERE a = {op[1]}")
        else:
            db.execute(f"UPDATE t SET a = {op[2]} WHERE a = {op[1]}")
    result = db.execute(sql)
    return result.rows, asdict(result.stats), db.explain(sql)


class TestIndexScans:
    @settings(max_examples=60, deadline=None)
    @given(
        index_ops,
        st.sampled_from(_INDEX_WHERES),
        st.sampled_from(_SECOND_CONJUNCTS),
    )
    def test_same_rows_same_order_same_stats_in_every_mode(
        self, ops, where, second
    ):
        sql = f"SELECT * FROM t WHERE {where}{second}"
        rows, stats, plan = _run_ops("interpreted", ops, sql)
        assert "(index " in plan
        if not second:
            assert " filter " not in plan  # the only conjunct is dropped
        assert _run_ops("vectorized", ops, sql) == (rows, stats, plan)
        # Index order: non-decreasing keys, and no NULL key ever.
        keys = [row[0] for row in rows]
        assert keys == sorted(keys)
        # The full predicate over a full scan is the oracle for the drop.
        unindexed, _, full_plan = _run_ops("interpreted", ops, sql, indexed=False)
        assert "(full scan)" in full_plan
        assert sorted(rows, key=repr) == sorted(unindexed, key=repr)


# ----------------------------------------------------------------------
# Arithmetic: the vector-checked arm and the per-element arm
# ----------------------------------------------------------------------
class _Int(int):
    """An int subclass: a number to ``isinstance``, not to the kind check."""


_numbers = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.floats(min_value=-9, max_value=9, allow_nan=False),
    st.booleans(),
)
_ODD_VALUES = {"null": None, "str": "ab", "subclass": _Int(3)}


@st.composite
def arithmetic_batches(draw):
    """Numeric rows — NULL-free (the ``map`` arm) or NULL-bearing (the
    NULL-tolerant arm) — optionally with one value both arms must refuse."""
    values = draw(st.sampled_from([_numbers, st.one_of(st.none(), _numbers)]))
    batch = draw(st.lists(st.tuples(values, values, values), min_size=1, max_size=8))
    odd = draw(st.sampled_from([None, None] + sorted(_ODD_VALUES)))
    if odd is not None:
        row = draw(st.integers(min_value=0, max_value=len(batch) - 1))
        column = draw(st.integers(min_value=0, max_value=2))
        values = list(batch[row])
        values[column] = _ODD_VALUES[odd]
        batch[row] = tuple(values)
    return batch


_arithmetic_leaves = st.one_of(
    st.sampled_from(tuple(map(ColumnRef, "abc"))),
    st.sampled_from((Literal(3), Literal(1.5), Literal(True))),
    # Deferred errors below the node: a zero divisor, a non-number.
    st.just(BinaryOp("/", ColumnRef("a"), ColumnRef("b"))),
    st.just(BinaryOp("*", Literal("ab"), Literal(3))),
)
arithmetic_trees = st.recursive(
    _arithmetic_leaves,
    lambda children: st.builds(
        BinaryOp, st.sampled_from(("+", "-", "*", "/", "%")), children, children
    ),
    max_leaves=4,
)


class TestArithmeticArms:
    @settings(max_examples=300)
    @given(arithmetic_trees, arithmetic_batches(), st.data())
    def test_value_error_and_error_order_match_interpreted(self, expr, batch, data):
        sel = sorted(data.draw(st.sets(st.sampled_from(range(len(batch))))))
        _check_value_kernel(expr, batch, range(len(batch)))
        _check_value_kernel(expr, batch, sel)

    def test_nulls_stay_null_and_a_non_number_still_errors(self):
        expr = BinaryOp("*", ColumnRef("a"), BinaryOp("-", Literal(1), ColumnRef("b")))
        batch = [(2, 0.5, "x"), (None, 0.5, "x"), (3, None, "x"), (4, 0.25, "x")]
        kernel = compile_vector_evaluator(expr, LAYOUT)
        assert kernel(_columns(batch), range(4)) == ([1.0, None, None, 3.0], [])
        assert kernel(_columns(batch), [1, 3]) == ([None, 3.0], [])
        for odd in ("ab", _Int(3)):  # neither may ride the NULL-tolerant arm
            spoiled = batch + [(odd, 0.5, "x")]
            _check_value_kernel(expr, spoiled, range(5))
            _check_value_kernel(expr, spoiled, [1, 4])

    def test_str_times_int_is_still_an_error(self):
        # Legal Python (``'ab' * 3``), illegal SQL: the kind check, not a
        # ``try``, is what keeps the fast arm off this vector.
        expr = BinaryOp("*", ColumnRef("c"), ColumnRef("a"))
        values, errs = compile_vector_evaluator(expr, LAYOUT)(
            _columns([(3, 1.0, "ab"), (2, 1.0, "cd")]), range(2)
        )
        assert values == [None, None]
        assert [str(exc) for _, exc in errs] == [
            "non-numeric arithmetic: 'ab' * 3",
            "non-numeric arithmetic: 'cd' * 2",
        ]


# ----------------------------------------------------------------------
# SUM / AVG: the one-group fold keeps the reference's addition sequence
# ----------------------------------------------------------------------
_ORDER_EXPOSING_FLOATS = (1e16, 1.0, -1e16, -0.0, 0.0, 0.1, 0.2, 0.3, 1e-9)
_HUGE_INTS = (2**62, -(2**62), 2**70, 3, -1)
sum_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(_HUGE_INTS)),
        st.one_of(st.none(), st.sampled_from(_ORDER_EXPOSING_FLOATS)),
        st.sampled_from(["red", "green"]),
    ),
    max_size=12,
)
_SUM_QUERIES = (
    "SELECT SUM(b), AVG(b), SUM(a), AVG(a) FROM t",
    "SELECT SUM(b), AVG(b) FROM t WHERE a > 0",  # behind the index on a
    "SELECT SUM(CASE WHEN c = 'red' THEN a ELSE b END) FROM t",  # int + float
    "SELECT SUM(a * b), AVG(a + b) FROM t",
    "SELECT c, SUM(b), AVG(b), SUM(a) FROM t GROUP BY c",
    "SELECT SUM(DISTINCT b), AVG(DISTINCT b) FROM t",
)


def _bits(rows):
    """Rows with floats as hex: ``-0.0`` != ``0.0``, no tolerance."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows
    ]


def _sum_surface(mode, data_rows, sql):
    db = Database(execution_mode=mode)
    db.execute(_CREATE)
    db.execute("CREATE INDEX idx_a ON t (a)")
    db.table("t").insert_many(data_rows)
    try:
        return _bits(db.execute(sql).rows)
    except Exception as exc:  # e.g. huge int + float: the same OverflowError
        return (type(exc).__name__, str(exc))


class TestSumOrder:
    @settings(max_examples=80, deadline=None)
    @example([(3, 1e16, "red"), (3, 1.0, "red"), (3, -1e16, "red")], _SUM_QUERIES[0])
    @example([(3, -0.0, "red")], _SUM_QUERIES[0])
    @example([(3, -0.0, "red"), (3, -0.0, "red")], _SUM_QUERIES[4])
    @given(sum_rows, st.sampled_from(_SUM_QUERIES))
    def test_sums_are_bit_identical_to_interpreted(self, data_rows, sql):
        reference = _sum_surface("interpreted", data_rows, sql)
        assert _sum_surface("vectorized", data_rows, sql) == reference, sql

    def test_the_fold_is_left_to_right_from_the_first_value(self):
        # What builtin ``sum`` would get wrong: it starts from 0 (so -0.0
        # comes back 0.0) and, from Python 3.12, compensates (1.0 here).
        rows = [(1, 1e16, "x"), (1, 1.0, "x"), (1, -1e16, "x")]
        assert _sum_surface("vectorized", rows, "SELECT SUM(b) FROM t") == [
            ((0.0).hex(),)
        ]
        assert _sum_surface(
            "vectorized", [(1, -0.0, "x")], "SELECT SUM(b), AVG(b) FROM t"
        ) == [((-0.0).hex(), (-0.0).hex())]


# ----------------------------------------------------------------------
# Joins and GROUP BY: the C-level build/probe and group-id arms
# ----------------------------------------------------------------------
_NAN = float("nan")
#: Keys that are equal across kinds (1, 1.0; 0, -0.0, 0.0), equal only to
#: themselves by identity (nan), never equal (NULL), huge, and empty.
_A_KEYS = (None, 0, 1, 2**70)
_B_KEYS = (None, 0.0, -0.0, 1.0, 0.5, _NAN)
_C_KEYS = (None, "", "x")
_JOIN_CREATE = "CREATE TABLE {} (id INTEGER, a INTEGER, b FLOAT, c TEXT)"
#: ``CASE`` mixes int, float and bool (``True`` = 1 = 1.0) into one key vector.
_MIXED_KEY = "CASE WHEN l.c = '' THEN l.b WHEN l.c = 'x' THEN l.a = 1 ELSE l.a END"
_JOIN_QUERIES = (
    "SELECT l.id, r.id FROM t l, u r WHERE l.a = r.a",
    "SELECT l.id, r.id FROM t l, u r WHERE l.a = r.b",  # INTEGER = FLOAT
    "SELECT l.id, r.id FROM t l, u r WHERE l.b = r.b",
    "SELECT l.id, r.id FROM t l, u r WHERE l.c = r.c",
    "SELECT l.id, r.id FROM t l, u r WHERE l.a = r.a AND l.b = r.b",
    "SELECT l.id, r.id FROM t l, u r WHERE l.a = r.b AND l.c = r.c",
    "SELECT l.id, r.id FROM t l, u r WHERE l.a = r.a AND l.b = r.b AND l.c = r.c",
    "SELECT l.id, r.id FROM t l, u r WHERE l.a = r.a AND l.b < r.b",
    "SELECT l.id, r.id, r.c FROM t l LEFT JOIN u r ON l.a = r.a",
    "SELECT l.id, r.id, r.c FROM t l LEFT JOIN u r ON l.a = r.b AND l.c = r.c",
    "SELECT l.id, r.id, r.b FROM t l LEFT JOIN u r ON l.c = r.c AND l.b = r.b",
    "SELECT l.id, r.id, r.c FROM t l LEFT JOIN u r ON l.a = r.a AND l.b < r.b",
    "SELECT l.id, m.id, r.id FROM t l, u m, t r WHERE l.a = m.a AND m.b = r.b",
    "SELECT l.id, m.c, r.id FROM t l LEFT JOIN u m ON l.a = m.a "
    "LEFT JOIN u r ON m.b = r.b",
    "SELECT l.id, r.id FROM t l, t r WHERE l.a = r.b",  # self-join
    "SELECT l.id, r.id FROM u l, u r WHERE l.a = r.a AND l.id < r.id",
    "SELECT l.a, COUNT(*), SUM(r.b), MIN(r.id) FROM t l, u r WHERE l.a = r.a "
    "GROUP BY l.a",
    "SELECT r.b, COUNT(*), MIN(l.id) FROM t l, u r WHERE l.a = r.a GROUP BY r.b",
    "SELECT l.b, r.c, COUNT(*), MIN(l.id) FROM t l LEFT JOIN u r ON l.a = r.b "
    "GROUP BY l.b, r.c",
    f"SELECT COUNT(*), MIN(l.id) FROM t l, u r WHERE l.a = r.a GROUP BY {_MIXED_KEY}",
    f"SELECT COUNT(*), MIN(l.id) FROM t l GROUP BY l.c, {_MIXED_KEY}",
    # Error paths: the same first exception from every mode.
    "SELECT SUM(l.c) FROM t l, u r WHERE l.a = r.a",
    "SELECT l.id FROM t l, u r WHERE l.a = r.a AND l.b + r.c > 1",
    "SELECT l.id FROM t l LEFT JOIN u r ON l.a = r.a WHERE r.b + l.c > 1",
)

_join_rows = st.lists(
    st.tuples(
        st.sampled_from(_A_KEYS), st.sampled_from(_B_KEYS), st.sampled_from(_C_KEYS)
    ),
    max_size=9,
)


def _first_of_each(rows, column):
    """``rows`` without later duplicates of a ``column`` value (NULLs stay)."""
    seen = set()
    return [
        row for row in rows
        if row[column] is None or not (row[column] in seen or seen.add(row[column]))
    ]


#: Key parts of every kind in one column: 1, 1.0 and True are one key, so
#: are 0, 0.0, -0.0 and False; two NaN objects are two keys.
_UNTYPED_KEYS = (None, 0, 1, 1.0, True, False, -0.0, _NAN, float("nan"), "x")
_UNTYPED_QUERIES = (
    "SELECT l.id, r.id FROM t l, u r WHERE l.a = r.a AND l.b = r.b",
    "SELECT l.id, r.id FROM t l, u r WHERE l.a = r.a AND l.b = r.b AND l.c = r.c",
    "SELECT l.id, r.id FROM t l LEFT JOIN u r ON l.c = r.c AND l.a = r.b",
)
_untyped_rows = st.lists(st.tuples(*[st.sampled_from(_UNTYPED_KEYS)] * 3), max_size=9)


class _Untyped:
    """A catalogue entry over rows as given: no type checks a value."""

    schema = TableSchema(
        "t", [Column(name, ColumnType.INTEGER) for name in ("id", "a", "b", "c")]
    )

    def __init__(self, rows):
        self._rows = [(serial,) + row for serial, row in enumerate(rows)]

    def __len__(self):
        return len(self._rows)

    def rows(self):
        return self._rows

    def column_data(self):
        return [list(column) for column in zip(*self._rows)] or [[]] * 4

    def index_on(self, column):
        return None


def _untyped_surface(executor, left_rows, right_rows, sql):
    catalog = {"t": _Untyped(left_rows), "u": _Untyped(right_rows)}
    layout, result, stats = executor(catalog).execute(
        Planner(catalog).plan(parse(sql))
    )
    rows = result if isinstance(result, list) else result.rows
    return layout.columns, [tuple(map(repr, row)) for row in rows], asdict(stats)


def _join_surface(mode, left_rows, right_rows, sql):
    db = Database(execution_mode=mode)
    for name, data in (("t", left_rows), ("u", right_rows)):
        db.execute(_JOIN_CREATE.format(name))
        db.table(name).insert_many(
            [(serial,) + row for serial, row in enumerate(data)]
        )
    try:
        result = db.execute(sql)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return result.columns, _bits(result.rows), asdict(result.stats)


_AB = _JOIN_QUERIES[4]  # l.a = r.a AND l.b = r.b
_BC = _JOIN_QUERIES[5]  # l.a = r.b AND l.c = r.c: INTEGER meets FLOAT
_OTHER_NAN = float("nan")


class TestJoinsAndGroups:
    """A key probes the first build column distinct on its own, else its
    first column bucketed, and compares the other parts; so
    ``distinct_column`` makes each column of the build side distinct in
    turn (None: as drawn)."""

    @settings(max_examples=150, deadline=None)
    @example([(1, 1.0, "x")], [(1, 1.0, ""), (1, 0.5, "x")], None, _JOIN_QUERIES[0])
    @example([(None, _NAN, None)], [(None, _NAN, None)], 0, _AB)
    # The probed column matches; the compared one holds one NaN object,
    # two NaN objects, NULL on one side or both, and 1 against 1.0.
    @example([(1, _NAN, "x")], [(1, _NAN, "x")], 0, _AB)
    @example([(1, _NAN, "x")], [(1, _OTHER_NAN, "x")], 0, _AB)
    @example([(1, None, "x")], [(1, 1.0, "x")], 0, _AB)
    @example([(1, 1.0, "x")], [(1, None, "x")], 0, _AB)
    @example([(1, None, "x")], [(1, None, "x")], 0, _AB)
    @example([(1, 0.5, "x")], [(0, 1.0, "x"), (2, 1.0, "")], 2, _BC)
    @example([(1, _NAN, "x"), (0, 1.0, "")], [(0, 1.0, "x"), (1, _NAN, "x")], 1, _AB)
    # No column distinct on its own, the key distinct as a whole or not: the
    # first column is bucketed and the second compared.
    @example([(1, 1.0, "x")], [(1, 1.0, "x"), (1, 0.5, "x"), (0, 1.0, "")], None, _AB)
    @example([(1, 1.0, "x")], [(1, 1.0, "x"), (1, 1.0, "")], None, _AB)
    @example(
        [(1, _NAN, "x"), (1, None, "x")],
        [(1, _NAN, "x"), (1, _OTHER_NAN, "x"), (1, None, "")],
        None,
        _AB,
    )
    @given(
        _join_rows,
        _join_rows,
        st.sampled_from((None, 0, 1, 2)),
        st.sampled_from(_JOIN_QUERIES),
    )
    def test_rows_order_stats_and_first_error_match_interpreted(
        self, left_rows, right_rows, distinct_column, sql
    ):
        if distinct_column is not None:  # the one-probe arm, on that column
            right_rows = _first_of_each(right_rows, distinct_column)
        reference = _join_surface("interpreted", left_rows, right_rows, sql)
        assert _join_surface("vectorized", left_rows, right_rows, sql) == reference

    @settings(max_examples=150, deadline=None)
    @example([(1, True, "x")], [(1, 1, "x"), (2, 1.0, "x")], 0, _UNTYPED_QUERIES[0])
    @example([(1, 1.0, True)], [(1, 1, 1.0), (2, 1.0, "x")], 0, _UNTYPED_QUERIES[1])
    @example([(1, _NAN, None)], [(1, _NAN, None), (1, 0, "x")], 2, _UNTYPED_QUERIES[1])
    @given(
        _untyped_rows,
        _untyped_rows,
        st.sampled_from((None, 0, 1, 2)),
        st.sampled_from(_UNTYPED_QUERIES),
    )
    def test_untyped_key_parts_meet_as_tuple_elements(
        self, left_rows, right_rows, distinct_column, sql
    ):
        """Columns no table type coerced, so 1, 1.0 and True meet in one key
        part and a bool against a number, as a tuple key's elements do."""
        if distinct_column is not None:
            right_rows = _first_of_each(right_rows, distinct_column)
        reference = _untyped_surface(Executor, left_rows, right_rows, sql)
        assert (
            _untyped_surface(VectorizedExecutor, left_rows, right_rows, sql)
            == reference
        )
