"""Vector expression compilation: lower :class:`Expr` trees into batch kernels.

This module is the one lowering of an expression: once per plan node, job
or query, into a *vector* kernel evaluated once per batch (the vectorized
executor's three evaluation functions wrap it).  A kernel takes the column
vectors plus a **selection vector** (strictly increasing row indices into
those columns, often a plain ``range``) and returns per-row results for
exactly the selected rows.

Two kernel shapes exist:

* value kernels (:func:`compile_vector_evaluator`) return
  ``(values, errors)`` where ``values`` aligns 1:1 with the selection
  vector and ``errors`` is a row-ordered list of ``(row_index, exception)``
  pairs (the value slot of an error row holds ``None`` as a placeholder);
* tri-state kernels (used internally for boolean contexts) partition the
  selection into ``(true_rows, unknown_rows, errors)`` — everything else is
  false — which is what makes short-circuit AND/OR *narrowing* possible:
  ``AND`` evaluates its right side only for rows whose left side is true or
  unknown, exactly mirroring the interpreted short-circuit.

Errors are **deferred**, never raised mid-batch: evaluating a batch must
surface the same exception the row-at-a-time reference path would have hit
first, so kernels record per-row exceptions (including raw ``TypeError``
from e.g. ``BETWEEN`` over incomparable values, matching the interpreted
path) and the executor re-raises the earliest one in row order at the
operator boundary.  Within one row, recording follows interpreted
evaluation order (left before right, condition before result).

LIKE regexes and IN-list frozensets are resolved at compile time, and
anything that cannot be lowered (a column missing from the layout, an
unresolved subquery, an unknown node type) falls back to a per-row adapter
over ``Expr.evaluate`` so the interpreted path stays the reference
semantics.

Callers must treat returned value vectors as read-only: kernels pass
through underlying column storage unchanged when the selection covers it
entirely.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.sqlengine.batch import NUMERIC_KINDS
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
    _like_regex,
)

#: Column vectors for one batch: ``columns[position][row_index]``.
Columns = Sequence[Sequence[object]]
#: A selection vector: strictly increasing row indices into the columns.
Selection = Sequence[int]
#: Deferred per-row errors, sorted by row index (indices are unique).
Errors = List[Tuple[int, BaseException]]
#: A value kernel: ``(columns, selection) -> (values, errors)``.
VectorFn = Callable[[Columns, Selection], Tuple[List[object], Errors]]
#: A tri-state kernel: ``(columns, selection) -> (true, unknown, errors)``.
TriFn = Callable[[Columns, Selection], Tuple[List[int], List[int], Errors]]
#: A predicate kernel: ``(columns, selection) -> (passing_rows, errors)``.
FilterFn = Callable[[Columns, Selection], Tuple[List[int], Errors]]

_COMPARISON_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

_NUMERIC_OR_NULL = NUMERIC_KINDS | {type(None)}


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def compile_vector_evaluator(expr: Expr, layout: RowLayout) -> VectorFn:
    """Compile ``expr`` into a batch kernel with reference-path semantics.

    For every selected row, ``values[k]`` (or the deferred error covering
    that row) equals what ``expr.evaluate(row, layout)`` would have produced
    (or raised).
    """
    try:
        return _lower_value(expr, layout)
    except SqlExecutionError:
        # e.g. a column the layout cannot resolve: the interpreted path
        # raises per row, so the per-row adapter preserves exact behaviour.
        return _row_adapter(expr, layout)


def compile_vector_filter(expr: Expr, layout: RowLayout) -> FilterFn:
    """Compile a WHERE/ON predicate into a selection-narrowing kernel.

    SQL semantics: NULL (and anything not ``True``) rejects the row, exactly
    like the executor's ``evaluate(...) is True`` checks.  Rows whose
    evaluation would raise come back in ``errors`` instead of the output
    selection.
    """
    try:
        if _is_boolean_node(expr):
            tri = _lower_tri(expr, layout)

            def run_tri(cols: Columns, sel: Selection):
                true_sel, _unknown, errs = tri(cols, sel)
                return true_sel, errs

            return run_tri
        value = _lower_value(expr, layout)
    except SqlExecutionError:
        value = _row_adapter(expr, layout)

    def run_value(cols: Columns, sel: Selection):
        values, errs = value(cols, sel)
        # Error rows hold a None placeholder, so `is True` skips them.
        return [i for v, i in zip(values, sel) if v is True], errs

    return run_value


def _is_boolean_node(expr: Expr) -> bool:
    """Whether ``expr`` always evaluates to bool/NULL (never another type)."""
    if isinstance(expr, BinaryOp):
        return expr.op in ("and", "or") or expr.op in _COMPARISON_OPS
    if isinstance(expr, UnaryOp):
        return expr.op == "not"
    return isinstance(expr, (Between, InList, Like, IsNull))


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _merge_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Merge two sorted, disjoint index lists."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    merged: List[int] = []
    i, j = 0, 0
    while i < len(a) and j < len(b):
        if a[i] <= b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return merged


def _merge_errs(a: Errors, b: Errors) -> Errors:
    """Merge two row-sorted error lists, keeping one error per row.

    When both sides error on the same row, ``a`` wins: callers pass the
    earlier evaluation stage (e.g. a comparison's left side) as ``a``,
    matching the exception the interpreted path would raise first.
    """
    if not a:
        return b
    if not b:
        return a
    merged: Errors = []
    i, j = 0, 0
    while i < len(a) and j < len(b):
        if a[i][0] < b[j][0]:
            merged.append(a[i])
            i += 1
        elif b[j][0] < a[i][0]:
            merged.append(b[j])
            j += 1
        else:
            merged.append(a[i])
            i += 1
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return merged


def _row_adapter(expr: Expr, layout: RowLayout) -> VectorFn:
    """Reference-semantics fallback: interpret ``expr`` per selected row."""

    def run(cols: Columns, sel: Selection):
        values: List[object] = []
        errs: Errors = []
        for i in sel:
            row = tuple(col[i] for col in cols)
            try:
                values.append(expr.evaluate(row, layout))
            except Exception as exc:  # deferred, incl. raw TypeError
                values.append(None)
                errs.append((i, exc))
        return values, errs

    return run


def _position_kernel(position: int) -> VectorFn:
    def run(cols: Columns, sel: Selection):
        col = cols[position]
        if len(sel) == len(col):
            # A strictly increasing selection as long as the column is the
            # identity: pass the storage through without copying.
            return col, []
        return [col[i] for i in sel], []

    return run


def _value_from_tri(tri: TriFn) -> VectorFn:
    """Adapt a tri-state kernel to value shape (for e.g. ``SELECT a AND b``)."""

    def run(cols: Columns, sel: Selection):
        true_sel, unknown_sel, errs = tri(cols, sel)
        true_set = set(true_sel)
        unknown_set = set(unknown_sel)
        err_set = {i for i, _ in errs}
        values: List[object] = []
        for i in sel:
            if i in true_set:
                values.append(True)
            elif i in unknown_set or i in err_set:
                values.append(None)
            else:
                values.append(False)
        return values, errs

    return run


def _tri_from_value(value: VectorFn, strict: bool) -> TriFn:
    """Adapt a value kernel to tri-state shape.

    ``strict`` applies ``_as_bool`` semantics: a non-boolean value in a
    logical context is a deferred per-row error with the interpreted
    message.  Non-strict is for nodes that can only yield bool/NULL.
    """

    def run(cols: Columns, sel: Selection):
        values, errs = value(cols, sel)
        err_set = {i for i, _ in errs} if errs else None
        true_sel: List[int] = []
        unknown_sel: List[int] = []
        bool_errs: Errors = []
        for v, i in zip(values, sel):
            if err_set is not None and i in err_set:
                continue
            if v is True:
                true_sel.append(i)
            elif v is None:
                unknown_sel.append(i)
            elif v is not False and strict:
                bool_errs.append(
                    (i, SqlExecutionError(f"expected a boolean, got {v!r}"))
                )
        if bool_errs:
            errs = _merge_errs(errs, bool_errs)
        return true_sel, unknown_sel, errs

    return run


# ----------------------------------------------------------------------
# Value lowering (one function per node type)
# ----------------------------------------------------------------------
def _lower_value(expr: Expr, layout: RowLayout) -> VectorFn:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda cols, sel: ([value] * len(sel), [])
    if isinstance(expr, ColumnRef):
        return _position_kernel(layout.resolve(expr.name))
    if isinstance(expr, BinaryOp):
        if expr.op in ("and", "or"):
            return _value_from_tri(_lower_tri(expr, layout))
        if expr.op in _COMPARISON_OPS:
            return _lower_value_comparison(expr, layout)
        if expr.op in ("+", "-", "*", "/", "%"):
            return _lower_value_arithmetic(expr, layout)
        raise SqlExecutionError(f"unknown operator: {expr.op!r}")
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return _value_from_tri(_lower_tri_not(expr, layout))
        return _lower_value_negate(expr, layout)
    if isinstance(expr, Between):
        return _lower_value_between(expr, layout)
    if isinstance(expr, InList):
        return _lower_value_in_list(expr, layout)
    if isinstance(expr, Like):
        return _lower_value_like(expr, layout)
    if isinstance(expr, IsNull):
        return _lower_value_is_null(expr, layout)
    if isinstance(expr, CaseWhen):
        return _lower_value_case(expr, layout)
    if isinstance(expr, FuncCall):
        return _lower_value_func(expr, layout)
    # InSubquery (a planning bug at evaluation time) and unknown future
    # node types: interpret per row for the identical error.
    return _row_adapter(expr, layout)


def _lower_value_comparison(expr: BinaryOp, layout: RowLayout) -> VectorFn:
    left = _lower_value(expr.left, layout)
    right = _lower_value(expr.right, layout)
    compare = _COMPARISON_OPS[expr.op]
    op = expr.op

    def run(cols: Columns, sel: Selection):
        # Both sides evaluate for every row before the NULL check, exactly
        # like the interpreted path: an error on the right must surface even
        # when the left is NULL.
        left_values, left_errs = left(cols, sel)
        right_values, right_errs = right(cols, sel)
        values: List[object] = [None] * len(sel)
        errs = _merge_errs(left_errs, right_errs)
        err_set = {i for i, _ in errs} if errs else None
        compare_errs: Errors = []
        for k, i in enumerate(sel):
            if err_set is not None and i in err_set:
                continue
            lhs = left_values[k]
            rhs = right_values[k]
            if lhs is None or rhs is None:
                continue
            try:
                values[k] = compare(lhs, rhs)
            except TypeError:
                compare_errs.append(
                    (i, SqlExecutionError(f"cannot compare {lhs!r} {op} {rhs!r}"))
                )
        if compare_errs:
            errs = _merge_errs(errs, compare_errs)
        return values, errs

    return run


def _lower_value_arithmetic(expr: BinaryOp, layout: RowLayout) -> VectorFn:
    left = _lower_value(expr.left, layout)
    right = _lower_value(expr.right, layout)
    op = expr.op
    arithmetic = _ARITHMETIC_OPS.get(op)

    def run(cols: Columns, sel: Selection):
        left_values, left_errs = left(cols, sel)
        right_values, right_errs = right(cols, sel)
        if arithmetic is not None and not left_errs and not right_errs:
            kinds = set(map(type, left_values)) | set(map(type, right_values))
            # Proven on the vectors: nothing below erred and every value is
            # a plain number (no subclass) or NULL, so no row can fail.
            # The kind check is the proof; ``'ab' * 3`` would not raise.
            if kinds <= NUMERIC_KINDS:
                return list(map(arithmetic, left_values, right_values)), []
            if kinds <= _NUMERIC_OR_NULL:
                return [
                    None if lhs is None or rhs is None else arithmetic(lhs, rhs)
                    for lhs, rhs in zip(left_values, right_values)
                ], []
        values: List[object] = [None] * len(sel)
        errs = _merge_errs(left_errs, right_errs)
        err_set = {i for i, _ in errs} if errs else None
        new_errs: Errors = []
        for k, i in enumerate(sel):
            if err_set is not None and i in err_set:
                continue
            lhs = left_values[k]
            rhs = right_values[k]
            if lhs is None or rhs is None:
                continue
            if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
                new_errs.append(
                    (i, SqlExecutionError(f"non-numeric arithmetic: {lhs!r} {op} {rhs!r}"))
                )
            elif arithmetic is not None:
                values[k] = arithmetic(lhs, rhs)
            elif rhs == 0:
                new_errs.append(
                    (i, SqlExecutionError(
                        "division by zero" if op == "/" else "modulo by zero"
                    ))
                )
            else:
                values[k] = lhs / rhs if op == "/" else lhs % rhs
        if new_errs:
            errs = _merge_errs(errs, new_errs)
        return values, errs

    return run


def _lower_value_negate(expr: UnaryOp, layout: RowLayout) -> VectorFn:
    operand = _lower_value(expr.operand, layout)

    def run(cols: Columns, sel: Selection):
        operand_values, errs = operand(cols, sel)
        values: List[object] = [None] * len(sel)
        err_set = {i for i, _ in errs} if errs else None
        new_errs: Errors = []
        for k, i in enumerate(sel):
            if err_set is not None and i in err_set:
                continue
            v = operand_values[k]
            if v is None:
                continue
            if isinstance(v, (int, float)):
                values[k] = -v
            else:
                new_errs.append((i, SqlExecutionError(f"cannot negate {v!r}")))
        if new_errs:
            errs = _merge_errs(errs, new_errs)
        return values, errs

    return run


def _lower_value_between(expr: Between, layout: RowLayout) -> VectorFn:
    operand = _lower_value(expr.operand, layout)
    low = _lower_value(expr.low, layout)
    high = _lower_value(expr.high, layout)
    negated = expr.negated

    def run(cols: Columns, sel: Selection):
        operand_values, operand_errs = operand(cols, sel)
        low_values, low_errs = low(cols, sel)
        high_values, high_errs = high(cols, sel)
        values: List[object] = [None] * len(sel)
        errs = _merge_errs(_merge_errs(operand_errs, low_errs), high_errs)
        err_set = {i for i, _ in errs} if errs else None
        range_errs: Errors = []
        for k, i in enumerate(sel):
            if err_set is not None and i in err_set:
                continue
            v = operand_values[k]
            lo = low_values[k]
            hi = high_values[k]
            if v is None or lo is None or hi is None:
                continue
            try:
                result = lo <= v <= hi
            except TypeError as exc:
                # The interpreted path lets this TypeError propagate raw.
                range_errs.append((i, exc))
                continue
            values[k] = not result if negated else result
        if range_errs:
            errs = _merge_errs(errs, range_errs)
        return values, errs

    return run


def _lower_value_in_list(expr: InList, layout: RowLayout) -> VectorFn:
    operand = _lower_value(expr.operand, layout)
    negated = expr.negated
    if all(isinstance(item, Literal) for item in expr.items):
        literal_values = [item.value for item in expr.items]
        saw_null = any(value is None for value in literal_values)
        try:
            members = frozenset(v for v in literal_values if v is not None)
        except TypeError:
            members = None  # unhashable literal: fall through to scan
        if members is not None:

            def run_set(cols: Columns, sel: Selection):
                operand_values, errs = operand(cols, sel)
                values: List[object] = [None] * len(sel)
                err_set = {i for i, _ in errs} if errs else None
                for k, i in enumerate(sel):
                    if err_set is not None and i in err_set:
                        continue
                    v = operand_values[k]
                    if v is None:
                        continue
                    try:
                        matched = v in members
                    except TypeError:
                        matched = False
                    if matched:
                        values[k] = not negated
                    elif not saw_null:
                        values[k] = negated
                return values, errs

            return run_set
    items = [_lower_value(item, layout) for item in expr.items]

    def run_scan(cols: Columns, sel: Selection):
        operand_values, operand_errs = operand(cols, sel)
        position = {i: k for k, i in enumerate(sel)}
        values: List[object] = [None] * len(sel)
        errs = list(operand_errs)
        err_set = {i for i, _ in operand_errs}
        # Rows narrow out of `active` as soon as an item matches (the
        # interpreted path stops evaluating further items there too).
        active = [
            i
            for k, i in enumerate(sel)
            if i not in err_set and operand_values[k] is not None
        ]
        operand_of = {i: operand_values[position[i]] for i in active}
        saw_null_rows = set()
        for item in items:
            if not active:
                break
            item_values, item_errs = item(cols, active)
            item_err_map = dict(item_errs)
            survivors: List[int] = []
            for k, i in enumerate(active):
                if i in item_err_map:
                    errs.append((i, item_err_map[i]))
                    continue
                candidate = item_values[k]
                if candidate is None:
                    saw_null_rows.add(i)
                    survivors.append(i)
                elif candidate == operand_of[i]:
                    values[position[i]] = not negated
                else:
                    survivors.append(i)
            active = survivors
        for i in active:
            values[position[i]] = None if i in saw_null_rows else negated
        errs.sort(key=lambda pair: pair[0])
        return values, errs

    return run_scan


def _lower_value_like(expr: Like, layout: RowLayout) -> VectorFn:
    operand = _lower_value(expr.operand, layout)
    match = _like_regex(expr.pattern).match
    negated = expr.negated

    def run(cols: Columns, sel: Selection):
        operand_values, errs = operand(cols, sel)
        values: List[object] = [None] * len(sel)
        err_set = {i for i, _ in errs} if errs else None
        for k, i in enumerate(sel):
            if err_set is not None and i in err_set:
                continue
            v = operand_values[k]
            if v is None:
                continue
            if not isinstance(v, str):
                v = str(v)
            matched = match(v) is not None
            values[k] = not matched if negated else matched
        return values, errs

    return run


def _lower_value_is_null(expr: IsNull, layout: RowLayout) -> VectorFn:
    operand = _lower_value(expr.operand, layout)
    negated = expr.negated

    def run(cols: Columns, sel: Selection):
        operand_values, errs = operand(cols, sel)
        if not errs:
            if negated:
                return [v is not None for v in operand_values], errs
            return [v is None for v in operand_values], errs
        err_set = {i for i, _ in errs}
        values: List[object] = []
        for v, i in zip(operand_values, sel):
            if i in err_set:
                values.append(None)
            else:
                values.append((v is not None) if negated else (v is None))
        return values, errs

    return run


def _lower_value_case(expr: CaseWhen, layout: RowLayout) -> VectorFn:
    whens: List[Tuple[TriFn, VectorFn]] = [
        (_lower_tri(condition, layout), _lower_value(result, layout))
        for condition, result in expr.whens
    ]
    default: Optional[VectorFn] = (
        _lower_value(expr.default, layout) if expr.default is not None else None
    )

    def run(cols: Columns, sel: Selection):
        position = {i: k for k, i in enumerate(sel)}
        values: List[object] = [None] * len(sel)
        errs: Errors = []
        # Rows narrow out as soon as a condition is true (or errors): later
        # WHEN arms never evaluate for them, like the interpreted walk.
        active: Sequence[int] = sel
        for condition, result in whens:
            if not active:
                break
            true_sel, _unknown, cond_errs = condition(cols, active)
            errs.extend(cond_errs)
            if true_sel:
                result_values, result_errs = result(cols, true_sel)
                errs.extend(result_errs)
                result_err_set = {i for i, _ in result_errs}
                for k, i in enumerate(true_sel):
                    if i not in result_err_set:
                        values[position[i]] = result_values[k]
            resolved = set(true_sel)
            resolved.update(i for i, _ in cond_errs)
            active = [i for i in active if i not in resolved]
        if default is not None and active:
            default_values, default_errs = default(cols, active)
            errs.extend(default_errs)
            default_err_set = {i for i, _ in default_errs}
            for k, i in enumerate(active):
                if i not in default_err_set:
                    values[position[i]] = default_values[k]
        errs.sort(key=lambda pair: pair[0])
        return values, errs

    return run


def _lower_value_func(expr: FuncCall, layout: RowLayout) -> VectorFn:
    if expr.is_aggregate:
        # By the time a projection evaluates, the GroupBy operator has
        # materialized the aggregate under its SQL text; resolve it once.
        return _position_kernel(layout.resolve(expr.to_sql()))
    function = _SCALAR_FUNCTIONS.get(expr.name.lower())
    # The interpreted path checks the function name and arity before
    # evaluating any argument; unknown/misused calls error per row without
    # touching the arguments.
    if function is None:
        return _constant_error_kernel(
            SqlExecutionError(f"unknown function: {expr.name!r}")
        )
    if len(expr.args) != 1:
        return _constant_error_kernel(
            SqlExecutionError(f"{expr.name} takes exactly one argument")
        )
    argument = _lower_value(expr.args[0], layout)

    def run(cols: Columns, sel: Selection):
        argument_values, errs = argument(cols, sel)
        values: List[object] = [None] * len(sel)
        err_set = {i for i, _ in errs} if errs else None
        call_errs: Errors = []
        for k, i in enumerate(sel):
            if err_set is not None and i in err_set:
                continue
            try:
                values[k] = function(argument_values[k])
            except Exception as exc:  # e.g. abs() of a str: raw TypeError
                call_errs.append((i, exc))
        if call_errs:
            errs = _merge_errs(errs, call_errs)
        return values, errs

    return run


def _constant_error_kernel(error: BaseException) -> VectorFn:
    def run(cols: Columns, sel: Selection):
        return [None] * len(sel), [(i, error) for i in sel]

    return run


# ----------------------------------------------------------------------
# Tri-state lowering (boolean contexts)
# ----------------------------------------------------------------------
def _lower_tri(expr: Expr, layout: RowLayout) -> TriFn:
    """Tri-state kernel for a logical context (AND/OR operand, NOT operand,
    CASE condition): non-boolean values become deferred ``_as_bool`` errors.
    """
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            return _lower_tri_and(expr, layout)
        if expr.op == "or":
            return _lower_tri_or(expr, layout)
        if expr.op in _COMPARISON_OPS:
            return _lower_tri_comparison(expr, layout)
    elif isinstance(expr, UnaryOp) and expr.op == "not":
        return _lower_tri_not(expr, layout)
    elif isinstance(expr, (Between, InList, Like, IsNull)):
        # These yield only bool/NULL, so the _as_bool check can't fire.
        return _tri_from_value(_lower_value(expr, layout), strict=False)
    return _tri_from_value(_lower_value(expr, layout), strict=True)


def _lower_tri_and(expr: BinaryOp, layout: RowLayout) -> TriFn:
    left = _lower_tri(expr.left, layout)
    right = _lower_tri(expr.right, layout)

    def run(cols: Columns, sel: Selection):
        left_true, left_unknown, errs = left(cols, sel)
        # Short-circuit narrowing: the right side evaluates only where the
        # left is true or unknown (interpreted AND stops on false).
        right_sel = _merge_sorted(left_true, left_unknown)
        if not right_sel:
            return [], [], errs
        right_true, right_unknown, right_errs = right(cols, right_sel)
        errs = _merge_errs(errs, right_errs)
        if not left_unknown:
            return right_true, right_unknown, errs
        left_true_set = set(left_true)
        right_true_set = set(right_true)
        right_unknown_set = set(right_unknown)
        right_err_set = {i for i, _ in right_errs}
        true_sel = [i for i in right_true if i in left_true_set]
        unknown_sel = []
        for i in right_sel:
            if i in right_err_set:
                continue
            if i in left_true_set:
                if i in right_unknown_set:
                    unknown_sel.append(i)  # T AND N = N
            elif i in right_true_set or i in right_unknown_set:
                unknown_sel.append(i)  # N AND T = N, N AND N = N
            # N AND F = F: drop
        return true_sel, unknown_sel, errs

    return run


def _lower_tri_or(expr: BinaryOp, layout: RowLayout) -> TriFn:
    left = _lower_tri(expr.left, layout)
    right = _lower_tri(expr.right, layout)

    def run(cols: Columns, sel: Selection):
        left_true, left_unknown, errs = left(cols, sel)
        # Short-circuit narrowing: the right side evaluates only where the
        # left is false or unknown (interpreted OR stops on true).
        skip = set(left_true)
        skip.update(i for i, _ in errs)
        right_sel = [i for i in sel if i not in skip] if skip else list(sel)
        if not right_sel:
            return left_true, [], errs
        right_true, right_unknown, right_errs = right(cols, right_sel)
        errs = _merge_errs(errs, right_errs)
        true_sel = _merge_sorted(left_true, right_true)
        left_unknown_set = set(left_unknown)
        right_true_set = set(right_true)
        right_unknown_set = set(right_unknown)
        right_err_set = {i for i, _ in right_errs}
        unknown_sel = []
        for i in right_sel:
            if i in right_err_set:
                continue
            if i in left_unknown_set:
                if i not in right_true_set:
                    unknown_sel.append(i)  # N OR F = N, N OR N = N
            elif i in right_unknown_set:
                unknown_sel.append(i)  # F OR N = N
        return true_sel, unknown_sel, errs

    return run


def _lower_tri_not(expr: UnaryOp, layout: RowLayout) -> TriFn:
    operand = _lower_tri(expr.operand, layout)

    def run(cols: Columns, sel: Selection):
        true_sel, unknown_sel, errs = operand(cols, sel)
        drop = set(true_sel)
        drop.update(unknown_sel)
        drop.update(i for i, _ in errs)
        # NOT false = true; NOT NULL stays NULL; errors stay errors.
        inverted = [i for i in sel if i not in drop]
        return inverted, unknown_sel, errs

    return run


def _lower_tri_comparison(expr: BinaryOp, layout: RowLayout) -> TriFn:
    compare = _COMPARISON_OPS[expr.op]
    op = expr.op
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        position = layout.resolve(expr.left.name)
        literal = expr.right.value
        if literal is None:
            # column <op> NULL is NULL for every non-erroring row.
            def run_null(cols: Columns, sel: Selection):
                return [], list(sel), []

            return run_null

        def run_column_literal(cols: Columns, sel: Selection):
            col = cols[position]
            true_sel: List[int] = []
            unknown_sel: List[int] = []
            errs: Errors = []
            append_true = true_sel.append
            for i in sel:
                lhs = col[i]
                if lhs is None:
                    unknown_sel.append(i)
                    continue
                try:
                    if compare(lhs, literal):
                        append_true(i)
                except TypeError:
                    errs.append(
                        (i, SqlExecutionError(f"cannot compare {lhs!r} {op} {literal!r}"))
                    )
            return true_sel, unknown_sel, errs

        return run_column_literal
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, ColumnRef):
        left_position = layout.resolve(expr.left.name)
        right_position = layout.resolve(expr.right.name)

        def run_column_column(cols: Columns, sel: Selection):
            left_col = cols[left_position]
            right_col = cols[right_position]
            true_sel: List[int] = []
            unknown_sel: List[int] = []
            errs: Errors = []
            append_true = true_sel.append
            for i in sel:
                lhs = left_col[i]
                rhs = right_col[i]
                if lhs is None or rhs is None:
                    unknown_sel.append(i)
                    continue
                try:
                    if compare(lhs, rhs):
                        append_true(i)
                except TypeError:
                    errs.append(
                        (i, SqlExecutionError(f"cannot compare {lhs!r} {op} {rhs!r}"))
                    )
            return true_sel, unknown_sel, errs

        return run_column_column
    return _tri_from_value(_lower_value_comparison(expr, layout), strict=False)
