"""Property: compiled evaluators are indistinguishable from Expr.evaluate.

Random expression trees over random rows — including NULLs, mixed types,
unresolvable columns, and unknown functions — must produce the same value,
or fail with the same error, in both execution paths.  This is the
load-bearing invariant behind every row closure the distributed engines,
UPDATE/DELETE and the group-by fallback run: the compiler may only change
*speed*, never a single observable outcome.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import SqlExecutionError
from repro.sqlengine.compile import (
    compile_evaluator,
    compile_key,
    compile_predicate,
    interpreted_evaluator,
)
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
# path raises per row and the compiler must fall back to identical behaviour.
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
        # the interpreted path; the compiled path must do the same.
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


class TestCompiledEquivalence:
    @settings(max_examples=300)
    @given(expr_trees, rows)
    def test_evaluator_matches_interpreted(self, expr, row):
        reference = interpreted_evaluator(expr, LAYOUT)
        compiled = compile_evaluator(expr, LAYOUT)
        _assert_same_outcome(_outcome(reference, row), _outcome(compiled, row))

    @given(expr_trees, rows)
    def test_predicate_matches_is_true(self, expr, row):
        predicate = compile_predicate(expr, LAYOUT)
        expected = _outcome(interpreted_evaluator(expr, LAYOUT), row)
        actual = _outcome(predicate, row)
        if expected[0] == "value":
            # SQL predicate semantics: NULL and False both reject the row.
            assert actual == ("value", expected[1] is True)
        else:
            _assert_same_outcome(expected, actual)

    @given(st.lists(expr_trees, min_size=1, max_size=3), rows)
    def test_key_matches_tuple_of_evaluates(self, exprs, row):
        key = compile_key(exprs, LAYOUT)
        expected_parts = [
            _outcome(interpreted_evaluator(expr, LAYOUT), row)
            for expr in exprs
        ]
        if all(kind == "value" for kind, _ in expected_parts):
            actual = key(row)
            assert isinstance(actual, tuple)
            assert len(actual) == len(exprs)
            for (_, expected_value), actual_value in zip(
                expected_parts, actual
            ):
                assert type(expected_value) is type(actual_value)
                assert expected_value == actual_value or (
                    expected_value != expected_value
                    and actual_value != actual_value
                )

    @given(expr_trees)
    def test_null_row_never_crashes_differently(self, expr):
        null_row = (None, None, None)
        reference = interpreted_evaluator(expr, LAYOUT)
        compiled = compile_evaluator(expr, LAYOUT)
        _assert_same_outcome(
            _outcome(reference, null_row), _outcome(compiled, null_row)
        )
