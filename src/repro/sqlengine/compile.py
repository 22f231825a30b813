"""The row-closure lowering for one-group-at-a-time code.

Not a ``Database`` execution mode (queries run vectorized, or interpreted
as the oracle): these closures serve the code that inherently visits one
row or one group at a time — the distributed engines' keys, residuals and
reducers (all through ``plan.driver`` and ``executor.compile_aggregates``),
``Database``'s UPDATE/DELETE, and the vectorized executor's group-by
fallback.

An expression is compiled **once** against a fixed layout into a nest of
plain Python closures: column references become tuple indexing with
positions resolved at compile time, operators become specialized closures,
LIKE patterns become pre-built regexes.  The closure is a drop-in
replacement for ``expr.evaluate(row, layout)``, which re-resolves every
column name and re-dispatches on node types *per row*:

* identical values, including SQL three-valued NULL semantics,
* identical errors (``SqlExecutionError`` with matching behaviour for type
  mismatches, division by zero, unknown functions) — compilation changes
  *how* expressions are evaluated, never a result or a simulated cost
  (``tests/property/test_compile_equivalence.py`` holds it to that).

Anything the compiler cannot lower (or whose lowering raises, e.g. a column
missing from the layout so the interpreted path would raise per row) falls
back to a closure over ``expr.evaluate`` itself, keeping the interpreted
path as the reference semantics.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.sqlengine.expr import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    RowLayout,
    UnaryOp,
    _SCALAR_FUNCTIONS,
    _as_bool,
    _like_regex,
)

#: A compiled evaluator: row tuple -> value (same contract as Expr.evaluate).
Evaluator = Callable[[Tuple[object, ...]], object]

_COMPARISON_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_evaluator(expr: Expr, layout: RowLayout) -> Evaluator:
    """Compile ``expr`` into a closure equivalent to ``expr.evaluate``.

    Column positions are resolved once, here, instead of per row.  On any
    lowering failure the interpreted evaluator is returned instead, so the
    result is always callable and always agrees with the reference path.
    """
    try:
        return _lower(expr, layout)
    except SqlExecutionError:
        # e.g. a column the layout cannot resolve: the interpreted path
        # raises per row, so the fallback preserves exact behaviour.
        return lambda row: expr.evaluate(row, layout)


def compile_predicate(expr: Expr, layout: RowLayout) -> Callable[[Tuple[object, ...]], bool]:
    """Compile a WHERE/ON predicate into a boolean row test.

    SQL semantics: NULL (and anything not ``True``) rejects the row, exactly
    like the executor's ``evaluate(...) is True`` checks.
    """
    evaluator = compile_evaluator(expr, layout)
    return lambda row: evaluator(row) is True


def compile_key(
    exprs: Sequence[Expr], layout: RowLayout
) -> Callable[[Tuple[object, ...]], Tuple[object, ...]]:
    """Compile a list of expressions into one tuple-key builder.

    Used for group-by keys and sort/distinct keys: the per-item expressions
    are lowered once, and each row pays only the closure calls.
    """
    evaluators = [compile_evaluator(expr, layout) for expr in exprs]
    if len(evaluators) == 1:
        first = evaluators[0]
        return lambda row: (first(row),)
    return lambda row: tuple(evaluator(row) for evaluator in evaluators)


def interpreted_evaluator(expr: Expr, layout: RowLayout) -> Evaluator:
    """The reference path as an evaluator: a closure over ``Expr.evaluate``."""
    return lambda row: expr.evaluate(row, layout)


def interpreted_predicate(
    expr: Expr, layout: RowLayout
) -> Callable[[Tuple[object, ...]], bool]:
    """The reference path as a predicate: only SQL TRUE keeps a row."""
    return lambda row: expr.evaluate(row, layout) is True


# ----------------------------------------------------------------------
# Lowering (one function per node type)
# ----------------------------------------------------------------------
def _lower(expr: Expr, layout: RowLayout) -> Evaluator:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        position = layout.resolve(expr.name)
        return lambda row: row[position]
    if isinstance(expr, BinaryOp):
        return _lower_binary(expr, layout)
    if isinstance(expr, UnaryOp):
        return _lower_unary(expr, layout)
    if isinstance(expr, Between):
        return _lower_between(expr, layout)
    if isinstance(expr, InList):
        return _lower_in_list(expr, layout)
    if isinstance(expr, Like):
        return _lower_like(expr, layout)
    if isinstance(expr, IsNull):
        return _lower_is_null(expr, layout)
    if isinstance(expr, CaseWhen):
        return _lower_case(expr, layout)
    if isinstance(expr, InSubquery):
        # Unresolved subqueries are a planning bug; the interpreted path
        # raises at evaluation time, so the compiled closure does too.
        return lambda row: expr.evaluate(row, layout)
    if isinstance(expr, FuncCall):
        return _lower_func(expr, layout)
    # Unknown node type (a future Expr subclass): interpret it.
    return lambda row: expr.evaluate(row, layout)


def _lower_binary(expr: BinaryOp, layout: RowLayout) -> Evaluator:
    op = expr.op
    if op in ("and", "or"):
        return _lower_logical(expr, layout)
    left = _lower(expr.left, layout)
    right = _lower(expr.right, layout)
    compare = _COMPARISON_OPS.get(op)
    if compare is not None:

        def run_compare(row):
            # Both sides evaluate before the NULL check, exactly like the
            # interpreted path: an error on the right must surface even
            # when the left is NULL.
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            try:
                return compare(lhs, rhs)
            except TypeError:
                raise SqlExecutionError(
                    f"cannot compare {lhs!r} {op} {rhs!r}"
                ) from None

        return run_compare
    if op in ("+", "-", "*", "/", "%"):
        return _lower_arithmetic(op, left, right)
    raise SqlExecutionError(f"unknown operator: {op!r}")


def _lower_logical(expr: BinaryOp, layout: RowLayout) -> Evaluator:
    left = _lower(expr.left, layout)
    right = _lower(expr.right, layout)
    if expr.op == "and":

        def run_and(row):
            lhs = _as_bool(left(row))
            if lhs is False:
                return False
            rhs = _as_bool(right(row))
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True

        return run_and

    def run_or(row):
        lhs = _as_bool(left(row))
        if lhs is True:
            return True
        rhs = _as_bool(right(row))
        if rhs is True:
            return True
        if lhs is None or rhs is None:
            return None
        return False

    return run_or


def _lower_arithmetic(op: str, left: Evaluator, right: Evaluator) -> Evaluator:
    arithmetic = {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
    }.get(op)

    if arithmetic is not None:

        def run_plain(row):
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
                raise SqlExecutionError(
                    f"non-numeric arithmetic: {lhs!r} {op} {rhs!r}"
                )
            return arithmetic(lhs, rhs)

        return run_plain

    def run_division(row):
        lhs = left(row)
        rhs = right(row)
        if lhs is None or rhs is None:
            return None
        if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
            raise SqlExecutionError(
                f"non-numeric arithmetic: {lhs!r} {op} {rhs!r}"
            )
        if rhs == 0:
            raise SqlExecutionError(
                "division by zero" if op == "/" else "modulo by zero"
            )
        return lhs / rhs if op == "/" else lhs % rhs

    return run_division


def _lower_unary(expr: UnaryOp, layout: RowLayout) -> Evaluator:
    operand = _lower(expr.operand, layout)
    if expr.op == "not":

        def run_not(row):
            as_bool = _as_bool(operand(row))
            return None if as_bool is None else not as_bool

        return run_not

    def run_neg(row):
        value = operand(row)
        if value is None:
            return None
        if not isinstance(value, (int, float)):
            raise SqlExecutionError(f"cannot negate {value!r}")
        return -value

    return run_neg


def _lower_between(expr: Between, layout: RowLayout) -> Evaluator:
    operand = _lower(expr.operand, layout)
    low = _lower(expr.low, layout)
    high = _lower(expr.high, layout)
    negated = expr.negated

    def run(row):
        value = operand(row)
        low_value = low(row)
        high_value = high(row)
        if value is None or low_value is None or high_value is None:
            return None
        result = low_value <= value <= high_value
        return not result if negated else result

    return run


def _lower_in_list(expr: InList, layout: RowLayout) -> Evaluator:
    operand = _lower(expr.operand, layout)
    negated = expr.negated
    if all(isinstance(item, Literal) for item in expr.items):
        values = [item.value for item in expr.items]
        saw_null = any(value is None for value in values)
        try:
            members = frozenset(value for value in values if value is not None)
        except TypeError:
            members = None  # unhashable literal: fall through to scan
        if members is not None:

            def run_set(row):
                value = operand(row)
                if value is None:
                    return None
                try:
                    matched = value in members
                except TypeError:
                    matched = False
                if matched:
                    return not negated
                if saw_null:
                    return None
                return negated

            return run_set
    items = [_lower(item, layout) for item in expr.items]

    def run_scan(row):
        value = operand(row)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not negated
        if saw_null:
            return None
        return negated

    return run_scan


def _lower_like(expr: Like, layout: RowLayout) -> Evaluator:
    operand = _lower(expr.operand, layout)
    match = _like_regex(expr.pattern).match
    negated = expr.negated

    def run(row):
        value = operand(row)
        if value is None:
            return None
        if not isinstance(value, str):
            value = str(value)
        matched = match(value) is not None
        return not matched if negated else matched

    return run


def _lower_is_null(expr: IsNull, layout: RowLayout) -> Evaluator:
    operand = _lower(expr.operand, layout)
    if expr.negated:
        return lambda row: operand(row) is not None
    return lambda row: operand(row) is None


def _lower_case(expr: CaseWhen, layout: RowLayout) -> Evaluator:
    whens: List[Tuple[Evaluator, Evaluator]] = [
        (_lower(condition, layout), _lower(result, layout))
        for condition, result in expr.whens
    ]
    default: Optional[Evaluator] = (
        _lower(expr.default, layout) if expr.default is not None else None
    )

    def run(row):
        for condition, result in whens:
            if _as_bool(condition(row)) is True:
                return result(row)
        if default is not None:
            return default(row)
        return None

    return run


def _lower_func(expr: FuncCall, layout: RowLayout) -> Evaluator:
    if expr.is_aggregate:
        # By the time a projection evaluates, the GroupBy operator has
        # materialized the aggregate under its SQL text; resolve it once.
        position = layout.resolve(expr.to_sql())
        return lambda row: row[position]
    function = _SCALAR_FUNCTIONS.get(expr.name.lower())
    if function is None or len(expr.args) != 1:
        # Unknown function / wrong arity: the interpreted path raises at
        # evaluation time, so defer to it for the identical error.
        return lambda row: expr.evaluate(row, layout)
    argument = _lower(expr.args[0], layout)
    return lambda row: function(argument(row))
