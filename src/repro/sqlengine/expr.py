"""Expression AST and evaluation.

Expressions evaluate against a row tuple plus a :class:`RowLayout` that maps
column names (qualified like ``lineitem.l_shipdate`` or bare) to positions.
SQL three-valued logic is honoured: comparisons involving NULL yield NULL,
``AND``/``OR`` propagate unknowns, and ``WHERE`` treats NULL as false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError


class RowLayout:
    """Resolves column names to positions in a row tuple.

    Column names are stored qualified (``alias.column``).  A bare name
    resolves if exactly one column carries it; an ambiguous bare name is an
    error, matching SQL semantics.
    """

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns: Tuple[str, ...] = tuple(column.lower() for column in columns)
        self._by_qualified: Dict[str, int] = {}
        self._by_bare: Dict[str, List[int]] = {}
        for position, column in enumerate(self.columns):
            self._by_qualified[column] = position
            bare = column.rsplit(".", 1)[-1]
            self._by_bare.setdefault(bare, []).append(position)

    def __len__(self) -> int:
        return len(self.columns)

    def candidates(self, name: str) -> List[int]:
        """The positions ``name`` could resolve to: its qualified match, else
        every column of its bare name (one resolves, more are ambiguous).

        A layout that keeps these positions of this one, in order, resolves
        ``name`` to the same column, or fails the same way.
        """
        lowered = name.lower()
        if lowered in self._by_qualified:
            return [self._by_qualified[lowered]]
        # Fall back to bare-name matching.  For a qualified name this fires
        # only when the qualifier is gone from the layout (e.g. ordering the
        # output of a projection by ``d.dname``).
        return self._by_bare.get(lowered.rsplit(".", 1)[-1], [])

    def resolve(self, name: str) -> int:
        lowered = name.lower()
        if lowered in self._by_qualified:  # the common case, kept inline
            return self._by_qualified[lowered]
        candidates = self.candidates(name)
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise SqlExecutionError(f"ambiguous column name: {name!r}")
        raise SqlExecutionError(f"unknown column: {name!r}")

    def has(self, name: str) -> bool:
        try:
            self.resolve(name)
            return True
        except SqlExecutionError:
            return False

    def concat(self, other: "RowLayout") -> "RowLayout":
        return RowLayout(self.columns + other.columns)


class Expr:
    """Base class for expression nodes."""

    def evaluate(self, row: Tuple[object, ...], layout: RowLayout) -> object:
        raise NotImplementedError

    def referenced_columns(self) -> List[str]:
        """All column names this expression reads (possibly qualified)."""
        return []

    def to_sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()})"


@dataclass(frozen=True, repr=False)
class Literal(Expr):
    value: object

    def evaluate(self, row, layout):
        return self.value

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True, repr=False)
class ColumnRef(Expr):
    name: str

    def evaluate(self, row, layout):
        return row[layout.resolve(self.name)]

    def referenced_columns(self) -> List[str]:
        return [self.name]

    def to_sql(self) -> str:
        return self.name


_ARITHMETIC = {"+", "-", "*", "/", "%"}
_COMPARISON = {"=", "!=", "<", "<=", ">", ">="}
_LOGICAL = {"and", "or"}


@dataclass(frozen=True, repr=False)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def evaluate(self, row, layout):
        op = self.op
        if op in _LOGICAL:
            return self._evaluate_logical(row, layout)
        lhs = self.left.evaluate(row, layout)
        rhs = self.right.evaluate(row, layout)
        if lhs is None or rhs is None:
            return None
        if op in _COMPARISON:
            return self._compare(op, lhs, rhs)
        if op in _ARITHMETIC:
            return self._arithmetic(op, lhs, rhs)
        raise SqlExecutionError(f"unknown operator: {op!r}")

    def _evaluate_logical(self, row, layout):
        lhs = _as_bool(self.left.evaluate(row, layout))
        # Short-circuit respecting three-valued logic.
        if self.op == "and":
            if lhs is False:
                return False
            rhs = _as_bool(self.right.evaluate(row, layout))
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True
        if lhs is True:
            return True
        rhs = _as_bool(self.right.evaluate(row, layout))
        if rhs is True:
            return True
        if lhs is None or rhs is None:
            return None
        return False

    @staticmethod
    def _compare(op: str, lhs: object, rhs: object) -> bool:
        try:
            if op == "=":
                return lhs == rhs
            if op == "!=":
                return lhs != rhs
            if op == "<":
                return lhs < rhs
            if op == "<=":
                return lhs <= rhs
            if op == ">":
                return lhs > rhs
            return lhs >= rhs
        except TypeError:
            raise SqlExecutionError(
                f"cannot compare {lhs!r} {op} {rhs!r}"
            ) from None

    @staticmethod
    def _arithmetic(op: str, lhs: object, rhs: object) -> object:
        if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
            raise SqlExecutionError(f"non-numeric arithmetic: {lhs!r} {op} {rhs!r}")
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                raise SqlExecutionError("division by zero")
            return lhs / rhs
        if rhs == 0:
            raise SqlExecutionError("modulo by zero")
        return lhs % rhs

    def referenced_columns(self) -> List[str]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.upper()} {self.right.to_sql()})"


@dataclass(frozen=True, repr=False)
class UnaryOp(Expr):
    op: str  # "not" or "-"
    operand: Expr

    def evaluate(self, row, layout):
        value = self.operand.evaluate(row, layout)
        if self.op == "not":
            as_bool = _as_bool(value)
            return None if as_bool is None else not as_bool
        if value is None:
            return None
        if not isinstance(value, (int, float)):
            raise SqlExecutionError(f"cannot negate {value!r}")
        return -value

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.op.upper()} {self.operand.to_sql()})"


@dataclass(frozen=True, repr=False)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def evaluate(self, row, layout):
        value = self.operand.evaluate(row, layout)
        low = self.low.evaluate(row, layout)
        high = self.high.evaluate(row, layout)
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return not result if self.negated else result

    def referenced_columns(self) -> List[str]:
        return (
            self.operand.referenced_columns()
            + self.low.referenced_columns()
            + self.high.referenced_columns()
        )

    def to_sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {keyword} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass(frozen=True, repr=False)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def evaluate(self, row, layout):
        value = self.operand.evaluate(row, layout)
        if value is None:
            return None
        saw_null = False
        for item in self.items:
            candidate = item.evaluate(row, layout)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not self.negated
        if saw_null:
            return None
        return self.negated

    def referenced_columns(self) -> List[str]:
        columns = self.operand.referenced_columns()
        for item in self.items:
            columns.extend(item.referenced_columns())
        return columns

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        items = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()} {keyword} ({items}))"


@dataclass(frozen=True, repr=False)
class Like(Expr):
    operand: Expr
    pattern: str
    negated: bool = False

    def evaluate(self, row, layout):
        value = self.operand.evaluate(row, layout)
        if value is None:
            return None
        if not isinstance(value, str):
            value = str(value)
        matched = _like_regex(self.pattern).match(value) is not None
        return not matched if self.negated else matched

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand.to_sql()} {keyword} '{escaped}')"


@dataclass(frozen=True, repr=False)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def evaluate(self, row, layout):
        value = self.operand.evaluate(row, layout)
        return (value is not None) if self.negated else (value is None)

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {keyword})"


@dataclass(frozen=True, repr=False)
class CaseWhen(Expr):
    """A searched CASE expression: WHEN cond THEN result ... ELSE default."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def evaluate(self, row, layout):
        for condition, result in self.whens:
            if _as_bool(condition.evaluate(row, layout)) is True:
                return result.evaluate(row, layout)
        if self.default is not None:
            return self.default.evaluate(row, layout)
        return None

    def referenced_columns(self) -> List[str]:
        columns: List[str] = []
        for condition, result in self.whens:
            columns.extend(condition.referenced_columns())
            columns.extend(result.referenced_columns())
        if self.default is not None:
            columns.extend(self.default.referenced_columns())
        return columns

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.whens:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True, repr=False)
class InSubquery(Expr):
    """``expr IN (SELECT ...)`` with an uncorrelated subquery.

    The planner resolves the subquery into a plain :class:`InList` before
    execution (see ``repro.sqlengine.subquery``); evaluating an unresolved
    node is a planning bug.
    """

    operand: Expr
    subquery: object  # a parser.SelectStmt; typed loosely to avoid a cycle
    negated: bool = False

    def evaluate(self, row, layout):
        raise SqlExecutionError(
            "IN (SELECT ...) must be resolved by the planner before execution"
        )

    def referenced_columns(self) -> List[str]:
        # The subquery is self-contained (uncorrelated); only the operand's
        # columns belong to the outer query.
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {keyword} (<subquery>))"


AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}
_SCALAR_FUNCTIONS = {
    "upper": lambda v: None if v is None else str(v).upper(),
    "lower": lambda v: None if v is None else str(v).lower(),
    "abs": lambda v: None if v is None else abs(v),
    "length": lambda v: None if v is None else len(str(v)),
}


@dataclass(frozen=True, repr=False)
class FuncCall(Expr):
    name: str
    args: Tuple[Expr, ...]
    star: bool = False  # COUNT(*)
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name.lower() in AGGREGATE_FUNCTIONS

    def evaluate(self, row, layout):
        name = self.name.lower()
        if self.is_aggregate:
            # Aggregates are computed by the GroupBy operator; by the time a
            # projection evaluates, the value is already materialized in the
            # row under the function's SQL text.
            return row[layout.resolve(self.to_sql())]
        function = _SCALAR_FUNCTIONS.get(name)
        if function is None:
            raise SqlExecutionError(f"unknown function: {self.name!r}")
        if len(self.args) != 1:
            raise SqlExecutionError(f"{self.name} takes exactly one argument")
        return function(self.args[0].evaluate(row, layout))

    def referenced_columns(self) -> List[str]:
        columns = []
        for arg in self.args:
            columns.extend(arg.referenced_columns())
        return columns

    def to_sql(self) -> str:
        if self.star:
            return f"{self.name.upper()}(*)"
        inner = ", ".join(arg.to_sql() for arg in self.args)
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name.upper()}({distinct}{inner})"


def _as_bool(value: object) -> Optional[bool]:
    """Convert an evaluation result to three-valued boolean."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise SqlExecutionError(f"expected a boolean, got {value!r}")


_LIKE_CACHE: Dict[str, "re.Pattern[str]"] = {}


def _like_regex(pattern: str) -> "re.Pattern[str]":
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = "".join(
            ".*" if char == "%" else "." if char == "_" else re.escape(char)
            for char in pattern
        )
        compiled = re.compile(f"^{regex}$", re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


def find_aggregates(expr: Expr) -> List[FuncCall]:
    """All aggregate function calls appearing in ``expr``."""
    found: List[FuncCall] = []
    _walk_aggregates(expr, found)
    return found


def _walk_aggregates(expr: Expr, found: List[FuncCall]) -> None:
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            found.append(expr)
            return
        for arg in expr.args:
            _walk_aggregates(arg, found)
    elif isinstance(expr, BinaryOp):
        _walk_aggregates(expr.left, found)
        _walk_aggregates(expr.right, found)
    elif isinstance(expr, UnaryOp):
        _walk_aggregates(expr.operand, found)
    elif isinstance(expr, Between):
        _walk_aggregates(expr.operand, found)
        _walk_aggregates(expr.low, found)
        _walk_aggregates(expr.high, found)
    elif isinstance(expr, InList):
        _walk_aggregates(expr.operand, found)
        for item in expr.items:
            _walk_aggregates(item, found)
    elif isinstance(expr, (Like, IsNull, InSubquery)):
        _walk_aggregates(expr.operand, found)
    elif isinstance(expr, CaseWhen):
        for condition, result in expr.whens:
            _walk_aggregates(condition, found)
            _walk_aggregates(result, found)
        if expr.default is not None:
            _walk_aggregates(expr.default, found)
