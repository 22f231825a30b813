"""Predicate-bound extraction shared by the engines and the planner.

Turns a statement's WHERE conjuncts into per-table ``(column, low, high)``
constraints; the basic engine feeds them to the range index (§4.3) and the
adaptive planner feeds them to the histograms (§5.1) for selectivity
estimation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sqlengine.expr import Between, BinaryOp, ColumnRef, Expr, Literal
from repro.sqlengine.planner import normalize_comparison
from repro.sqlengine.schema import TableSchema


def range_constraint(
    schema: TableSchema, conjuncts: List[Expr]
) -> Optional[Tuple[str, object, object]]:
    """The first ``col <op> literal`` constraint over ``schema``'s columns.

    Returns ``(column, low, high)`` with open sides as ``None``, or ``None``
    when no conjunct constrains a column of this table.
    """
    for conjunct in conjuncts:
        if isinstance(conjunct, Between) and not conjunct.negated:
            if (
                isinstance(conjunct.operand, ColumnRef)
                and isinstance(conjunct.low, Literal)
                and isinstance(conjunct.high, Literal)
            ):
                column = conjunct.operand.name.rsplit(".", 1)[-1].lower()
                if schema.has_column(column):
                    return column, conjunct.low.value, conjunct.high.value
        if not isinstance(conjunct, BinaryOp):
            continue
        column, literal, op = normalize_comparison(conjunct)
        if column is None or not schema.has_column(column):
            continue
        if op == "=":
            return column, literal, literal
        if op in ("<", "<="):
            return column, None, literal
        if op in (">", ">="):
            return column, literal, None
    return None
