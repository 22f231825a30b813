"""Pull-based, row-at-a-time plan executor: the interpreted reference.

``Database(execution_mode="interpreted")`` runs plans here, with every
expression walked by ``Expr.evaluate``; it is the oracle the vectorized
executor is tested against, and nothing in production runs it.  The module
also holds what both executors share: :class:`ExecStats`, index resolution,
the reference GROUP BY loop and the aggregate states.

Each plan node executes to a ``(RowLayout, rows)`` pair; rows are tuples.
Execution gathers :class:`ExecStats` (base-table rows scanned, rows produced,
index probes) which the distributed engines turn into simulated processing
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.sqlengine.compile import (
    compile_evaluator,
    interpreted_evaluator,
    interpreted_predicate,
)
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
        return group_rows_reference(node, child_layout, child_rows, interpreted_evaluator)

    # ------------------------------------------------------------------
    # Project / distinct / sort / limit
    # ------------------------------------------------------------------
    def _execute_project(self, node: ProjectNode, stats: ExecStats):
        child_layout, child_rows = self._execute(node.child, stats)

        output_names: List[str] = []
        evaluators: List[Callable[[Tuple[object, ...]], object]] = []
        for item in node.items:
            if item.is_star:
                for position, column in enumerate(child_layout.columns):
                    if item.star_qualifier is not None and not column.startswith(
                        item.star_qualifier + "."
                    ):
                        continue
                    output_names.append(column)
                    evaluators.append(_position_getter(position))
                continue
            output_names.append(item.output_name().lower())
            evaluators.append(interpreted_evaluator(item.expr, child_layout))

        layout = RowLayout(output_names)
        rows = [
            tuple(evaluate(row) for evaluate in evaluators) for row in child_rows
        ]
        return layout, rows

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


def _position_getter(position: int) -> Callable[[Tuple[object, ...]], object]:
    return lambda row: row[position]


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
    node: GroupByNode,
    child_layout: RowLayout,
    child_rows: Sequence[Tuple[object, ...]],
    evaluator_factory: Callable[[Expr, RowLayout], Callable],
):
    """The reference row-at-a-time GROUP BY loop.

    Shared by :class:`Executor` (its only group-by implementation) and the
    vectorized executor, whose columnar fast path falls back here whenever
    any evaluation errors so the surfaced exception matches the reference
    row-visit order exactly.
    """
    layout = group_output_layout(node, child_layout)
    key_evaluators = [
        evaluator_factory(expr, child_layout) for expr in node.group_exprs
    ]
    make_states = _state_factory(node.aggregates, child_layout, evaluator_factory)

    groups: Dict[Tuple[object, ...], List[_AggState]] = {}
    group_order: List[Tuple[object, ...]] = []
    for row in child_rows:
        key = tuple(evaluate(row) for evaluate in key_evaluators)
        states = groups.get(key)
        if states is None:
            states = make_states()
            groups[key] = states
            group_order.append(key)
        for state in states:
            state.accumulate(row, child_layout)

    # A scalar aggregate over an empty input still yields one row.
    if not groups and not node.group_exprs:
        groups[()] = make_states()
        group_order.append(())

    rows = [
        key + tuple(state.result() for state in groups[key])
        for key in group_order
    ]
    return layout, rows


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


def _state_factory(
    aggregates: Sequence[FuncCall],
    layout: RowLayout,
    evaluator_factory: Callable[[Expr, RowLayout], Callable],
) -> Callable[[], List["_AggState"]]:
    """Lower the aggregates' arguments once; returns a maker of fresh states.

    COUNT(*) and malformed calls get no argument getter; ``_AggState`` keeps
    its per-row arity error for the latter, matching the reference path.
    """
    arg_getters = [
        None
        if aggregate.star or len(aggregate.args) != 1
        else evaluator_factory(aggregate.args[0], layout)
        for aggregate in aggregates
    ]
    return lambda: [
        _AggState(aggregate, arg_getter)
        for aggregate, arg_getter in zip(aggregates, arg_getters)
    ]


def compile_aggregates(
    aggregates: Sequence[FuncCall], layout: RowLayout
) -> Callable[[Sequence[Tuple[object, ...]]], Tuple[object, ...]]:
    """Lower aggregate calls into ``rows of one group -> aggregate values``.

    For the distributed engines (BestPeer++'s engines and HadoopDB's
    SMS-generated reducers), which aggregate outside a local GroupBy plan
    node: compile once per job, call once per group.  The compiled argument
    closures are value-identical to the interpreted path.
    """
    make_states = _state_factory(aggregates, layout, compile_evaluator)

    def compute(rows: Sequence[Tuple[object, ...]]) -> Tuple[object, ...]:
        states = make_states()
        for row in rows:
            for state in states:
                state.accumulate(row, layout)
        return tuple(state.result() for state in states)

    return compute


class _AggState:
    """Incremental state for one aggregate function.

    ``arg_getter`` is an optional precompiled evaluator for the aggregate's
    single argument; without it the argument is interpreted per row.
    """

    def __init__(self, call: FuncCall, arg_getter=None) -> None:
        self.call = call
        self.name = call.name.lower()
        self.count = 0
        self.total: object = None
        self.minimum: object = None
        self.maximum: object = None
        self.distinct_values: Optional[set] = set() if call.distinct else None
        self._arg_getter = arg_getter

    def accumulate(self, row: Tuple[object, ...], layout: RowLayout) -> None:
        if self.call.star:
            self.count += 1
            return
        if len(self.call.args) != 1:
            raise SqlExecutionError(
                f"{self.call.name.upper()} takes exactly one argument"
            )
        if self._arg_getter is not None:
            value = self._arg_getter(row)
        else:
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
