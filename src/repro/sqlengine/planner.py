"""Rule-based query planner.

Translates a parsed :class:`~repro.sqlengine.parser.SelectStmt` into a tree
of logical plan nodes:

* predicates are split into conjuncts and pushed down to the deepest scan
  that can evaluate them,
* an indexable conjunct (``col = literal``, ``col <op> literal`` or
  ``col BETWEEN a AND b`` over an indexed column) turns a scan into an index
  access path,
* equi-join conditions become hash joins; everything else falls back to a
  nested-loop join,
* aggregates in the projection/HAVING introduce a group-by node.

The same planner serves the BestPeer++ normal peers and the HadoopDB
workers, which keeps the benchmark comparison apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.expr import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    find_aggregates,
)
from repro.sqlengine.parser import (
    Join,
    OrderItem,
    SelectItem,
    SelectStmt,
)
from repro.sqlengine.types import ColumnType

_COMPARISONS = {"=", "<", "<=", ">", ">="}


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------
@dataclass
class IndexAccess:
    """An index access path chosen for a scan."""

    column: str
    # Equality probe...
    eq_value: Optional[object] = None
    # ...or range bounds (either side may be open).
    low: Optional[object] = None
    high: Optional[object] = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    @property
    def is_equality(self) -> bool:
        return self.eq_value is not None


@dataclass
class PlanNode:
    """What every operator node carries besides its own fields."""

    #: ``(input columns, lowered)``: the layouts, kernels and output names the
    #: vectorized executor derived on this node's first execution.  A plan is
    #: cached and shipped to every data owner, so the input columns it was
    #: lowered against are kept to detect a catalogue that lays them out
    #: differently.  Not part of the plan's identity.
    lowered: Optional[tuple] = field(
        default=None, init=False, compare=False, repr=False
    )


@dataclass
class ScanNode(PlanNode):
    """Scan a base table under a binding (alias) name."""

    table: str
    binding: str
    predicate: Optional[Expr] = None
    index_access: Optional[IndexAccess] = None


@dataclass
class JoinNode(PlanNode):
    left: object
    right: object
    condition: Optional[Expr]
    kind: str = "inner"  # "inner" | "left"
    # Filled by the planner for equi-joins: pairs of (left column, right column).
    equi_keys: Tuple[Tuple[str, str], ...] = ()


@dataclass
class FilterNode(PlanNode):
    child: object
    predicate: Expr


@dataclass
class GroupByNode(PlanNode):
    child: object
    group_exprs: Tuple[Expr, ...]
    aggregates: Tuple[FuncCall, ...]


@dataclass
class ProjectNode(PlanNode):
    child: object
    items: Tuple[SelectItem, ...]


@dataclass
class DistinctNode(PlanNode):
    child: object


@dataclass
class SortNode(PlanNode):
    child: object
    order_items: Tuple[OrderItem, ...]


@dataclass
class LimitNode(PlanNode):
    child: object
    limit: int


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
def order_resolvable(items, order_by) -> bool:
    """True if every ORDER BY expression resolves on the projection output.

    Decides, per statement, where the sort runs: above the projection
    (keys read the projected row, aliases included) or below it (keys read
    the rows being projected, dropped columns included).
    """
    output_names = set()
    for item in items:
        if item.is_star:
            # A star projection keeps every input column; anything the
            # sort references will still be present.
            return True
        output_names.add(item.output_name().lower())
    for order_item in order_by:
        for name in order_item.expr.referenced_columns():
            bare = name.lower().rsplit(".", 1)[-1]
            if bare not in output_names:
                return False
    return True


class Planner:
    """Plans SELECT statements against a catalogue of tables.

    ``catalog`` maps lowercase table names to objects exposing ``schema``
    (a :class:`~repro.sqlengine.schema.TableSchema`) and ``index_on(column)``
    — i.e., :class:`~repro.sqlengine.table.Table` instances.
    """

    def __init__(self, catalog: Dict[str, object]) -> None:
        self._catalog = catalog

    def plan(self, stmt: SelectStmt) -> object:
        bindings = self._resolve_bindings(stmt)
        conjuncts = split_conjuncts(stmt.where)

        # Partition WHERE conjuncts by which bindings they reference.
        scan_predicates: Dict[str, List[Expr]] = {name: [] for name in bindings}
        join_conjuncts: List[Expr] = []
        for conjunct in conjuncts:
            touched = self._bindings_of(conjunct, bindings)
            if len(touched) == 1:
                scan_predicates[next(iter(touched))].append(conjunct)
            else:
                join_conjuncts.append(conjunct)

        # Build scans (with index selection) for every binding.
        scans: Dict[str, object] = {}
        for name, table_name in bindings.items():
            scans[name] = self._build_scan(
                table_name, name, scan_predicates[name]
            )

        # Left-deep join tree in FROM order; comma-join conditions are the
        # multi-binding conjuncts that become applicable once both sides are
        # in the tree.
        plan, joined = self._join_from_tables(stmt, scans, bindings, join_conjuncts)

        # Any remaining multi-binding conjunct (e.g. referencing three
        # bindings) is applied as a filter above the joins.
        leftovers = [
            conjunct for conjunct in join_conjuncts if conjunct not in joined
        ]
        for conjunct in leftovers:
            plan = FilterNode(plan, conjunct)

        # Aggregation.
        aggregates = self._collect_aggregates(stmt)
        if stmt.group_by or aggregates:
            plan = GroupByNode(plan, tuple(stmt.group_by), tuple(aggregates))
            if stmt.having is not None:
                plan = FilterNode(plan, stmt.having)
        elif stmt.having is not None:
            raise SqlExecutionError("HAVING requires GROUP BY or aggregates")

        # ORDER BY may reference projection aliases (sort above the
        # projection) or columns the projection drops (sort below it).
        sort_below_project = stmt.order_by and not order_resolvable(
            stmt.items, stmt.order_by
        )
        if sort_below_project:
            plan = SortNode(plan, stmt.order_by)

        plan = ProjectNode(plan, stmt.items)

        if stmt.distinct:
            plan = DistinctNode(plan)

        if stmt.order_by and not sort_below_project:
            plan = SortNode(plan, stmt.order_by)

        if stmt.limit is not None:
            plan = LimitNode(plan, stmt.limit)

        return plan

    # ------------------------------------------------------------------
    # Binding resolution
    # ------------------------------------------------------------------
    def _resolve_bindings(self, stmt: SelectStmt) -> Dict[str, str]:
        """Map binding (alias) name -> table name, validating the catalogue."""
        bindings: Dict[str, str] = {}
        refs = list(stmt.tables) + [join.table for join in stmt.joins]
        for ref in refs:
            if ref.table not in self._catalog:
                raise SqlCatalogError(f"unknown table: {ref.table!r}")
            if ref.binding in bindings:
                raise SqlCatalogError(f"duplicate table binding: {ref.binding!r}")
            bindings[ref.binding] = ref.table
        return bindings

    def _bindings_of(self, expr: Expr, bindings: Dict[str, str]) -> set:
        """Which bindings an expression references."""
        touched = set()
        for name in expr.referenced_columns():
            lowered = name.lower()
            if "." in lowered:
                qualifier = lowered.split(".", 1)[0]
                if qualifier in bindings:
                    touched.add(qualifier)
                    continue
            bare = lowered.rsplit(".", 1)[-1]
            owners = [
                binding
                for binding, table in bindings.items()
                if self._catalog[table].schema.has_column(bare)
            ]
            if len(owners) == 1:
                touched.add(owners[0])
            elif len(owners) > 1:
                raise SqlExecutionError(f"ambiguous column in predicate: {name!r}")
            else:
                raise SqlCatalogError(f"unknown column in predicate: {name!r}")
        return touched

    # ------------------------------------------------------------------
    # Scan construction with index selection
    # ------------------------------------------------------------------
    def _build_scan(
        self, table_name: str, binding: str, predicates: List[Expr]
    ) -> ScanNode:
        table = self._catalog[table_name]
        access: Optional[IndexAccess] = None
        for predicate in predicates:
            access = self._match_index(table, predicate)
            if access is not None:
                # NULL keys are not indexed and every bound is a non-NULL
                # literal, so the index result is exactly this conjunct's
                # TRUE set: only the other conjuncts are left to check.
                predicates = [p for p in predicates if p is not predicate]
                break
        residual = combine_conjuncts(predicates)
        return ScanNode(
            table=table_name,
            binding=binding,
            predicate=residual,
            index_access=access,
        )

    def _match_index(self, table: object, predicate: Expr) -> Optional[IndexAccess]:
        """Turn ``col <op> literal`` / ``col BETWEEN a AND b`` into index access."""
        if isinstance(predicate, Between) and not predicate.negated:
            column = _bare_column(predicate.operand)
            if (
                column is not None
                and isinstance(predicate.low, Literal)
                and isinstance(predicate.high, Literal)
                and _index_comparable(
                    table, column, predicate.low.value, predicate.high.value
                )
            ):
                return IndexAccess(
                    column=column,
                    low=predicate.low.value,
                    high=predicate.high.value,
                )
            return None
        if not isinstance(predicate, BinaryOp) or predicate.op not in _COMPARISONS:
            return None
        column, literal, op = normalize_comparison(predicate)
        if column is None or not _index_comparable(table, column, literal):
            return None
        if op == "=":
            return IndexAccess(column=column, eq_value=literal)
        if op == "<":
            return IndexAccess(column=column, high=literal, high_inclusive=False)
        if op == "<=":
            return IndexAccess(column=column, high=literal)
        if op == ">":
            return IndexAccess(column=column, low=literal, low_inclusive=False)
        return IndexAccess(column=column, low=literal)

    # ------------------------------------------------------------------
    # Join tree
    # ------------------------------------------------------------------
    def _join_from_tables(
        self,
        stmt: SelectStmt,
        scans: Dict[str, object],
        bindings: Dict[str, str],
        join_conjuncts: List[Expr],
    ) -> Tuple[object, List[Expr]]:
        order = [ref.binding for ref in stmt.tables]
        plan = scans[order[0]]
        in_tree = {order[0]}
        used: List[Expr] = []

        def applicable_conjuncts() -> List[Expr]:
            ready = []
            for conjunct in join_conjuncts:
                if conjunct in used:
                    continue
                if self._bindings_of(conjunct, bindings) <= in_tree:
                    ready.append(conjunct)
            return ready

        # Comma-joined tables: join in FROM order using whatever WHERE
        # conjuncts become applicable.
        for binding in order[1:]:
            in_tree.add(binding)
            ready = applicable_conjuncts()
            used.extend(ready)
            condition = combine_conjuncts(ready)
            plan = self._make_join(plan, scans[binding], condition, "inner", bindings)

        # Explicit JOIN ... ON clauses, in statement order.
        for join in stmt.joins:
            in_tree.add(join.table.binding)
            plan = self._make_join(
                plan, scans[join.table.binding], join.condition, join.kind, bindings
            )
            ready = applicable_conjuncts()
            used.extend(ready)
            for conjunct in ready:
                plan = FilterNode(plan, conjunct)

        return plan, used

    def _make_join(
        self,
        left: object,
        right: object,
        condition: Optional[Expr],
        kind: str,
        bindings: Dict[str, str],
    ) -> JoinNode:
        right_binding = right.binding if isinstance(right, ScanNode) else None
        equi_keys: List[Tuple[str, str]] = []
        residual: List[Expr] = []
        for conjunct in split_conjuncts(condition):
            pair = self._extract_equi_pair(conjunct, right_binding, bindings)
            if pair is not None:
                equi_keys.append(pair)
            else:
                residual.append(conjunct)
        node = JoinNode(
            left=left,
            right=right,
            condition=combine_conjuncts(residual),
            kind=kind,
            equi_keys=tuple(equi_keys),
        )
        return node

    def _extract_equi_pair(
        self,
        conjunct: Expr,
        right_binding: Optional[str],
        bindings: Dict[str, str],
    ) -> Optional[Tuple[str, str]]:
        """``a.x = b.y`` with exactly one side bound to the right input."""
        if right_binding is None:
            return None
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            return None
        if not isinstance(conjunct.left, ColumnRef) or not isinstance(
            conjunct.right, ColumnRef
        ):
            return None
        left_side = self._bindings_of(conjunct.left, bindings)
        right_side = self._bindings_of(conjunct.right, bindings)
        if left_side == {right_binding} and right_binding not in right_side:
            return (conjunct.right.name, conjunct.left.name)
        if right_side == {right_binding} and right_binding not in left_side:
            return (conjunct.left.name, conjunct.right.name)
        return None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _collect_aggregates(self, stmt: SelectStmt) -> List[FuncCall]:
        aggregates: List[FuncCall] = []
        seen = set()
        sources: List[Expr] = [
            item.expr for item in stmt.items if item.expr is not None
        ]
        if stmt.having is not None:
            sources.append(stmt.having)
        for expr in sources:
            for aggregate in find_aggregates(expr):
                key = aggregate.to_sql().lower()
                if key not in seen:
                    seen.add(key)
                    aggregates.append(aggregate)
        return aggregates


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """The AND-ed conjuncts of ``expr``, left to right (none for ``None``)."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def combine_conjuncts(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """``conjuncts`` AND-ed back into one expression (``None`` for none)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = BinaryOp("and", combined, conjunct)
    return combined


def plan_tables(plan: object) -> Tuple[str, ...]:
    """All base table names a plan reads, in scan order.

    Used by prepared-statement execution to validate that a plan built on
    one peer is still applicable on another (same catalogue entries).
    """
    names: List[str] = []

    def walk(node: object) -> None:
        if isinstance(node, ScanNode):
            names.append(node.table)
        elif isinstance(node, JoinNode):
            walk(node.left)
            walk(node.right)
        elif hasattr(node, "child"):
            walk(node.child)

    walk(plan)
    return tuple(names)


def explain_plan(plan: object, indent: int = 0) -> str:
    """Render a plan tree as indented text (the engine's EXPLAIN output)."""
    pad = "  " * indent
    if isinstance(plan, ScanNode):
        if plan.index_access is not None:
            access = plan.index_access
            if access.is_equality:
                detail = f"index eq {access.column} = {access.eq_value!r}"
            else:
                low = "-inf" if access.low is None else repr(access.low)
                high = "+inf" if access.high is None else repr(access.high)
                detail = f"index range {access.column} in [{low}, {high}]"
        else:
            detail = "full scan"
        line = f"{pad}Scan {plan.table} AS {plan.binding} ({detail})"
        if plan.predicate is not None:
            line += f" filter {plan.predicate.to_sql()}"
        return line
    if isinstance(plan, JoinNode):
        if plan.equi_keys:
            keys = ", ".join(f"{l} = {r}" for l, r in plan.equi_keys)
            header = f"{pad}HashJoin [{plan.kind}] on {keys}"
        else:
            header = f"{pad}NestedLoopJoin [{plan.kind}]"
        if plan.condition is not None:
            header += f" residual {plan.condition.to_sql()}"
        return "\n".join(
            [
                header,
                explain_plan(plan.left, indent + 1),
                explain_plan(plan.right, indent + 1),
            ]
        )
    if isinstance(plan, FilterNode):
        return "\n".join(
            [
                f"{pad}Filter {plan.predicate.to_sql()}",
                explain_plan(plan.child, indent + 1),
            ]
        )
    if isinstance(plan, GroupByNode):
        groups = ", ".join(e.to_sql() for e in plan.group_exprs) or "<all>"
        aggs = ", ".join(a.to_sql() for a in plan.aggregates)
        return "\n".join(
            [
                f"{pad}GroupBy [{groups}] computing [{aggs}]",
                explain_plan(plan.child, indent + 1),
            ]
        )
    if isinstance(plan, ProjectNode):
        items = ", ".join(item.output_name() for item in plan.items)
        return "\n".join(
            [f"{pad}Project [{items}]", explain_plan(plan.child, indent + 1)]
        )
    if isinstance(plan, DistinctNode):
        return "\n".join(
            [f"{pad}Distinct", explain_plan(plan.child, indent + 1)]
        )
    if isinstance(plan, SortNode):
        keys = ", ".join(
            f"{item.expr.to_sql()} {'ASC' if item.ascending else 'DESC'}"
            for item in plan.order_items
        )
        return "\n".join(
            [f"{pad}Sort [{keys}]", explain_plan(plan.child, indent + 1)]
        )
    if isinstance(plan, LimitNode):
        return "\n".join(
            [f"{pad}Limit {plan.limit}", explain_plan(plan.child, indent + 1)]
        )
    return f"{pad}{type(plan).__name__}"


def _bare_column(expr: Expr) -> Optional[str]:
    if isinstance(expr, ColumnRef):
        return expr.name.rsplit(".", 1)[-1].lower()
    return None


def _index_comparable(table: object, column: str, *bounds: object) -> bool:
    """Whether ``column`` has an index that ``bounds`` can probe.

    A NULL bound matches nothing and a bound of another kind than the
    column's values cannot be ordered against its keys; both stay in the
    residual filter, which answers them as a full scan does.
    """
    if table.index_on(column) is None:
        return False
    column_type = table.schema.column(column).column_type
    kind = str if column_type in (ColumnType.TEXT, ColumnType.DATE) else (int, float)
    return all(isinstance(bound, kind) for bound in bounds)


def normalize_comparison(predicate: BinaryOp):
    """Return (column, literal, op) with the column on the left, else Nones."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    if isinstance(predicate.left, ColumnRef) and isinstance(
        predicate.right, Literal
    ):
        return _bare_column(predicate.left), predicate.right.value, predicate.op
    if isinstance(predicate.left, Literal) and isinstance(
        predicate.right, ColumnRef
    ):
        return (
            _bare_column(predicate.right),
            predicate.left.value,
            flipped[predicate.op],
        )
    return None, None, None
