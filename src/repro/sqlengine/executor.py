"""Pull-based, row-at-a-time plan executor: the interpreted reference.

``Database(execution_mode="interpreted")`` runs plans here, with every
expression walked by ``Expr.evaluate``; it is the oracle the vectorized
executor is tested against, and no query in production runs it.  The module
also holds what both executors share: :class:`ExecStats`, index resolution,
the reference GROUP BY loop and the aggregate states — and the oracle's
evaluators, which ``Database``'s UPDATE/DELETE run as well.

Each plan node executes to a ``(RowLayout, rows)`` pair; rows are tuples.
Execution gathers :class:`ExecStats` (base-table rows scanned, rows produced,
index probes) which the distributed engines turn into simulated processing
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.sqlengine.expr import (
    ColumnRef,
    Expr,
    FuncCall,
    RowLayout,
)
from repro.sqlengine.planner import (
    DistinctNode,
    FilterNode,
    GroupByNode,
    IndexAccess,
    JoinNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.sqlengine.table import Table


def interpreted_evaluator(
    expr: Expr, layout: RowLayout
) -> Callable[[Tuple[object, ...]], object]:
    """The reference path as an evaluator: a closure over ``Expr.evaluate``."""
    return lambda row: expr.evaluate(row, layout)


def interpreted_predicate(
    expr: Expr, layout: RowLayout
) -> Callable[[Tuple[object, ...]], bool]:
    """The reference path as a predicate: only SQL TRUE keeps a row."""
    return lambda row: expr.evaluate(row, layout) is True


@dataclass
class ExecStats:
    """Work counters accumulated during plan execution."""

    rows_scanned: int = 0
    rows_output: int = 0
    index_probes: int = 0
    join_build_rows: int = 0
    join_probe_rows: int = 0

    def merge(self, other: "ExecStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.rows_output += other.rows_output
        self.index_probes += other.index_probes
        self.join_build_rows += other.join_build_rows
        self.join_probe_rows += other.join_probe_rows


class Executor:
    """The interpreted reference executor: plan trees, one row at a time.

    Every expression is walked by ``Expr.evaluate`` per row.  This is the
    semantic oracle, not a production path: the vectorized executor must
    produce identical rows, errors and :class:`ExecStats` — the microbench
    and the equivalence tests assert it — so simulated costs never depend
    on which of the two ran.
    """

    def __init__(self, catalog: Dict[str, Table]) -> None:
        self._catalog = catalog

    def execute(self, plan: object, stats: Optional[ExecStats] = None):
        """Run ``plan``; returns ``(layout, rows, stats)``."""
        stats = stats if stats is not None else ExecStats()
        layout, rows = self._execute(plan, stats)
        stats.rows_output = len(rows)
        return layout, rows, stats

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _execute(self, plan: object, stats: ExecStats):
        if isinstance(plan, ScanNode):
            return self._execute_scan(plan, stats)
        if isinstance(plan, FilterNode):
            return self._execute_filter(plan, stats)
        if isinstance(plan, JoinNode):
            return self._execute_join(plan, stats)
        if isinstance(plan, GroupByNode):
            return self._execute_group_by(plan, stats)
        if isinstance(plan, ProjectNode):
            return self._execute_project(plan, stats)
        if isinstance(plan, DistinctNode):
            return self._execute_distinct(plan, stats)
        if isinstance(plan, SortNode):
            return self._execute_sort(plan, stats)
        if isinstance(plan, LimitNode):
            return self._execute_limit(plan, stats)
        raise SqlExecutionError(f"unknown plan node: {type(plan).__name__}")

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _execute_scan(self, node: ScanNode, stats: ExecStats):
        table = self._catalog[node.table]
        layout = RowLayout(
            [f"{node.binding}.{column}" for column in table.schema.column_names]
        )
        rows: List[Tuple[object, ...]]
        if node.index_access is not None:
            rows = index_rows(table, node.index_access, stats)
        else:
            rows = list(table.rows())
            stats.rows_scanned += len(table)
        if node.predicate is not None:
            predicate = interpreted_predicate(node.predicate, layout)
            rows = [row for row in rows if predicate(row)]
        return layout, rows

    # ------------------------------------------------------------------
    # Filter / Join
    # ------------------------------------------------------------------
    def _execute_filter(self, node: FilterNode, stats: ExecStats):
        layout, rows = self._execute(node.child, stats)
        predicate = interpreted_predicate(node.predicate, layout)
        return layout, [row for row in rows if predicate(row)]

    def _execute_join(self, node: JoinNode, stats: ExecStats):
        left_layout, left_rows = self._execute(node.left, stats)
        right_layout, right_rows = self._execute(node.right, stats)
        layout = left_layout.concat(right_layout)

        if node.equi_keys:
            rows = self._hash_join(
                node, left_layout, left_rows, right_layout, right_rows,
                layout, stats,
            )
        else:
            rows = self._nested_loop_join(
                node, left_rows, right_layout, right_rows, layout, stats
            )
        return layout, rows

    def _hash_join(
        self, node, left_layout, left_rows, right_layout, right_rows,
        layout, stats,
    ):
        left_positions = [
            left_layout.resolve(left_key) for left_key, _ in node.equi_keys
        ]
        right_positions = [
            right_layout.resolve(right_key) for _, right_key in node.equi_keys
        ]
        # Build on the right side (explicit JOIN order puts the new table on
        # the right; for TPC-H style plans that is usually the smaller side).
        buckets: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
        for row in right_rows:
            key = tuple(row[position] for position in right_positions)
            if any(part is None for part in key):
                continue
            buckets.setdefault(key, []).append(row)
        stats.join_build_rows += len(right_rows)

        condition = (
            None
            if node.condition is None
            else interpreted_predicate(node.condition, layout)
        )
        results: List[Tuple[object, ...]] = []
        null_pad = (None,) * len(right_layout)
        for left_row in left_rows:
            stats.join_probe_rows += 1
            key = tuple(left_row[position] for position in left_positions)
            matched = False
            if not any(part is None for part in key):
                for right_row in buckets.get(key, ()):
                    combined = left_row + right_row
                    if condition is None or condition(combined):
                        results.append(combined)
                        matched = True
            if not matched and node.kind == "left":
                results.append(left_row + null_pad)
        return results

    def _nested_loop_join(
        self, node, left_rows, right_layout, right_rows, layout, stats
    ):
        condition = (
            None
            if node.condition is None
            else interpreted_predicate(node.condition, layout)
        )
        results: List[Tuple[object, ...]] = []
        null_pad = (None,) * len(right_layout)
        for left_row in left_rows:
            matched = False
            for right_row in right_rows:
                stats.join_probe_rows += 1
                combined = left_row + right_row
                if condition is None or condition(combined):
                    results.append(combined)
                    matched = True
            if not matched and node.kind == "left":
                results.append(left_row + null_pad)
        return results

    # ------------------------------------------------------------------
    # Group by / aggregation
    # ------------------------------------------------------------------
    def _execute_group_by(self, node: GroupByNode, stats: ExecStats):
        child_layout, child_rows = self._execute(node.child, stats)
        return group_output_layout(node, child_layout), group_rows_reference(
            node.group_exprs, node.aggregates, child_layout, child_rows
        )

    # ------------------------------------------------------------------
    # Project / distinct / sort / limit
    # ------------------------------------------------------------------
    def _execute_project(self, node: ProjectNode, stats: ExecStats):
        child_layout, child_rows = self._execute(node.child, stats)
        names, outputs = projection(node.items, child_layout)
        evaluators = [
            itemgetter(output)
            if isinstance(output, int)
            else interpreted_evaluator(output, child_layout)
            for output in outputs
        ]
        rows = [
            tuple(evaluate(row) for evaluate in evaluators) for row in child_rows
        ]
        return RowLayout(names), rows

    def _execute_distinct(self, node: DistinctNode, stats: ExecStats):
        layout, rows = self._execute(node.child, stats)
        # The whole row tuple is the distinct key; dict.fromkeys dedups in
        # one pass while keeping first-occurrence order.
        return layout, list(dict.fromkeys(rows))

    def _execute_sort(self, node: SortNode, stats: ExecStats):
        layout, rows = self._execute(node.child, stats)
        # One key tuple per row (each OrderItem expression is
        # evaluated exactly once), then stable sorts applied last-to-first
        # exactly as before — composition of stable sorts preserves the
        # reference ordering for mixed ASC/DESC.
        items = node.order_items
        evaluators = [interpreted_evaluator(item.expr, layout) for item in items]
        decorated = [
            (tuple(sort_key(evaluate(row)) for evaluate in evaluators), row)
            for row in rows
        ]
        for index in range(len(items) - 1, -1, -1):
            decorated.sort(
                key=lambda pair, index=index: pair[0][index],
                reverse=not items[index].ascending,
            )
        return layout, [row for _, row in decorated]

    def _execute_limit(self, node: LimitNode, stats: ExecStats):
        layout, rows = self._execute(node.child, stats)
        return layout, rows[: node.limit]


def projection(items, layout: RowLayout) -> Tuple[List[str], List[object]]:
    """A select list against ``layout``: its output names, and per output
    column the expression to evaluate or, for a star expansion, the
    input column's position."""
    names: List[str] = []
    outputs: List[object] = []
    for item in items:
        if item.is_star:
            for position, column in enumerate(layout.columns):
                if item.star_qualifier is None or column.startswith(
                    item.star_qualifier + "."
                ):
                    names.append(column)
                    outputs.append(position)
            continue
        names.append(item.output_name().lower())
        outputs.append(item.expr)
    return names, outputs


def index_rows(
    table: Table, access: IndexAccess, stats: ExecStats
) -> List[Tuple[object, ...]]:
    """Resolve an :class:`IndexAccess` to its rows, charging ``stats``.

    Shared by the row executor and the vectorized executor so both charge
    identical probe/scan counts for identical plans.  Rows come back in
    index order (by key, then as the index holds a key's ids): a float SUM
    downstream adds in that order.
    """
    index = table.index_on(access.column)
    if index is None:
        raise SqlExecutionError(
            f"planner chose a missing index on {access.column!r}"
        )
    if access.is_equality:
        row_ids = index.lookup(access.eq_value)
    else:
        row_ids = list(
            index.range_scan(
                access.low,
                access.high,
                access.low_inclusive,
                access.high_inclusive,
            )
        )
    stats.index_probes += 1
    stats.rows_scanned += len(row_ids)
    return table.rows_by_ids(row_ids)


def group_output_layout(node: GroupByNode, child_layout: RowLayout) -> RowLayout:
    """The output layout of a GROUP BY: group columns then aggregate columns."""
    group_names = []
    for expr in node.group_exprs:
        if isinstance(expr, ColumnRef):
            group_names.append(
                child_layout.columns[child_layout.resolve(expr.name)]
            )
        else:
            group_names.append(expr.to_sql().lower())
    agg_names = [aggregate.to_sql().lower() for aggregate in node.aggregates]
    return RowLayout(group_names + agg_names)


def group_rows_reference(
    group_exprs: Sequence[Expr],
    aggregates: Sequence[FuncCall],
    layout: RowLayout,
    rows: Sequence[Tuple[object, ...]],
) -> List[Tuple[object, ...]]:
    """The reference row-at-a-time GROUP BY loop: group key values then
    aggregate values, one row per group in first-seen order.

    :class:`Executor`'s only group-by implementation, and where the
    vectorized grouped aggregate falls back whenever anything surprises it,
    so the surfaced exception matches the reference row-visit order.
    """
    groups: Dict[Tuple[object, ...], List[_AggState]] = {}
    for row in rows:
        key = tuple(expr.evaluate(row, layout) for expr in group_exprs)
        states = groups.get(key)
        if states is None:
            states = groups[key] = [_AggState(call) for call in aggregates]
        for state in states:
            state.accumulate(row, layout)

    # A scalar aggregate over an empty input still yields one row.
    if not groups and not group_exprs:
        groups[()] = [_AggState(call) for call in aggregates]

    return [
        key + tuple(state.result() for state in states)
        for key, states in groups.items()
    ]


class _MinType:
    """Sorts before every other value; stands in for NULL (NULLS FIRST)."""

    def __lt__(self, other) -> bool:
        return not isinstance(other, _MinType)

    def __gt__(self, other) -> bool:
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, _MinType)

    def __hash__(self) -> int:
        return 0


_NULL_SORTS_FIRST = _MinType()


def sort_key(value: object):
    """``value`` as an ORDER BY key: NULL sorts before every value."""
    return _NULL_SORTS_FIRST if value is None else value


def sort_order(key_vectors, order_items, n: int) -> List[int]:
    """``range(n)`` in ORDER BY order, given one key vector per item.

    Stable sorts applied last key to first compose to the reference
    ordering for mixed ASC/DESC; sorting an index vector by a precomputed
    key vector replaces per-row key tuples.
    """
    order = list(range(n))
    for keys, item in reversed(list(zip(key_vectors, order_items))):
        sortable = list(map(sort_key, keys))
        order.sort(key=sortable.__getitem__, reverse=not item.ascending)
    return order


class _AggState:
    """Incremental state for one aggregate function."""

    def __init__(self, call: FuncCall) -> None:
        self.call = call
        self.name = call.name.lower()
        self.count = 0
        self.total: object = None
        self.minimum: object = None
        self.maximum: object = None
        self.distinct_values: Optional[set] = set() if call.distinct else None

    def accumulate(self, row: Tuple[object, ...], layout: RowLayout) -> None:
        if self.call.star:
            self.count += 1
            return
        if len(self.call.args) != 1:
            raise SqlExecutionError(
                f"{self.call.name.upper()} takes exactly one argument"
            )
        value = self.call.args[0].evaluate(row, layout)
        if value is None:
            return
        if self.distinct_values is not None:
            if value in self.distinct_values:
                return
            self.distinct_values.add(value)
        self.count += 1
        if self.name in ("sum", "avg"):
            if not isinstance(value, (int, float)):
                raise SqlExecutionError(
                    f"{self.name.upper()} over non-numeric value {value!r}"
                )
            self.total = value if self.total is None else self.total + value
        elif self.name == "min":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.name == "max":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self) -> object:
        if self.name == "count":
            return self.count
        if self.name == "sum":
            return self.total
        if self.name == "avg":
            return None if self.count == 0 else self.total / self.count
        if self.name == "min":
            return self.minimum
        if self.name == "max":
            return self.maximum
        raise SqlExecutionError(f"unknown aggregate: {self.name!r}")
