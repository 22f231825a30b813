"""The SMS planner: SQL -> a chain of MapReduce jobs.

Mirrors HadoopDB's SMS (SQL-to-MapReduce-to-SQL) planner as the paper
describes it per query:

* Q1 (selection only)          -> one **map-only** job; the full SQL is
  pushed to each worker's local database (§6.1.6),
* Q2 (single-table aggregate)  -> one job; maps compute *partial* aggregates
  locally, one reduce round merges them (§6.1.7),
* Q3 (join)                    -> one job; maps fetch qualified tuples of
  both tables, reducers join (§6.1.8),
* Q4 (join + aggregate)        -> two jobs: join, then aggregation (§6.1.9),
* Q5 (3 joins + aggregate)     -> four jobs (§6.1.10).

The planner is generic over this query family: it splits predicates,
pushes single-table conjuncts and projections into per-worker local SQL,
orders joins by FROM order, decomposes algebraic aggregates into partial
form, and leaves ORDER BY / LIMIT / HAVING / DISTINCT to the lightweight
driver (the paper's SMS does the same — those run in the final serial step).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.batch import ColumnRelation
from repro.sqlengine.database import Database
from repro.sqlengine.expr import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    find_aggregates,
)
from repro.sqlengine.parser import SelectItem, SelectStmt, TableRef, parse
from repro.sqlengine.planner import Planner, combine_conjuncts, split_conjuncts
from repro.sqlengine.schema import Column, TableSchema


# ----------------------------------------------------------------------
# Plan dataclasses
# ----------------------------------------------------------------------
@dataclass
class TableLocalPlan:
    """Per-worker local SQL for one table binding."""

    binding: str
    table: str
    sql: str
    # Qualified output column names, e.g. ["l.l_orderkey", ...].
    columns: List[str]


@dataclass
class JoinStage:
    """One shuffle join: accumulated rows ⋈ a new table."""

    left_key: str  # qualified column in the accumulated row
    right: TableLocalPlan
    right_key: str  # qualified column in the right table's output
    residual: Optional[Expr] = None  # post-join filter once columns exist


@dataclass
class PartialAggregate:
    """An algebraic aggregate decomposed for map-side partial evaluation."""

    call: FuncCall  # the original aggregate in the query
    partial_sqls: List[str]  # map-side aggregate expressions (1 or 2)
    merge_ops: List[str]  # "sum" | "min" | "max", one per partial
    finalize: str  # "identity" | "div" (avg = sum / count)


@dataclass
class AggregateStage:
    """The final grouping/aggregation step."""

    group_exprs: Tuple[Expr, ...]
    group_names: List[str]
    aggregates: Tuple[FuncCall, ...]
    # Filled only on the single-table pushdown path.
    partials: Optional[List[PartialAggregate]] = None

    @property
    def output_columns(self) -> List[str]:
        """Names of the aggregated stream: group columns, then each call."""
        return self.group_names + [
            call.to_sql().lower() for call in self.aggregates
        ]


@dataclass
class DistributedPlan:
    """Everything a driver needs to run the query as MapReduce jobs."""

    base: TableLocalPlan
    joins: List[JoinStage]
    aggregate: Optional[AggregateStage]
    items: Tuple[SelectItem, ...]
    having: Optional[Expr]
    order_by: tuple
    limit: Optional[int]
    distinct: bool
    # Qualified column names of the record stream after all joins.
    columns_after_joins: List[str]
    # The original statement and the part of its WHERE clause that was NOT
    # pushed into per-table local SQL (multi-table conjuncts).  The basic
    # engine's processing phase re-evaluates the query over the fetched
    # partitions using exactly this residual predicate.
    statement: Optional[SelectStmt] = None
    residual_where: Optional[Expr] = None
    #: ``(staging schemas, plan)`` once :meth:`SmsPlanner.processing_plan`
    #: made them, kept here as a plan node keeps its lowering.  Not part of
    #: the identity.
    processing: Optional[tuple] = field(
        default=None, init=False, compare=False, repr=False
    )
    #: The basic engine's last processing over this plan's fetched batches,
    #: kept by ``engine_basic._process_fetched`` to replay a repeat over the
    #: same batch objects (DESIGN.md §5 decision 20).  Not part of the
    #: identity.
    last_processed: Optional[tuple] = field(
        default=None, init=False, compare=False, repr=False
    )
    #: The last run of this plan's MapReduce job chain, kept by
    #: ``DistributedPlanDriver.run`` (a ``ChainRecord``) to replay a repeat
    #: whose table splits hand back the same batch objects (DESIGN.md §5
    #: decision 21).  Not part of the identity.
    last_chain: Optional[object] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def local_plans(self) -> List[TableLocalPlan]:
        """Every table binding's local plan, in join (FROM) order."""
        return [self.base] + [stage.right for stage in self.joins]

    @property
    def num_jobs(self) -> int:
        """How many MapReduce jobs the plan compiles to."""
        jobs = len(self.joins)
        if self.aggregate is not None:
            jobs += 1
        elif not self.joins:
            jobs = 1  # map-only selection job
        return jobs


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class SmsPlanner:
    """Compiles SELECT statements against the global schema."""

    def __init__(self, schemas: Dict[str, TableSchema]) -> None:
        self._schemas = {name.lower(): schema for name, schema in schemas.items()}
        # SQL text -> (statement, plan), least recently used first.
        self._compiled: "OrderedDict[str, tuple]" = OrderedDict()

    def compile_text(
        self, sql: str, parser=None
    ) -> Tuple[SelectStmt, DistributedPlan]:
        """The one compile door: a SQL text's statement and distributed plan.

        Compiled once per planner (a bounded LRU; a network or cluster owns
        one planner) and then shared by every engine, execution and user, so
        the pair is immutable by contract: derive, never edit.  Errors are
        not cached.  ``parser`` stands in for ``parse`` on a miss, for a
        caller whose own binding of it is instrumented.
        """
        pair = self._compiled.get(sql)
        if pair is None:
            stmt = (parser or parse)(sql)
            pair = self._compiled[sql] = stmt, self.compile(stmt)
            if len(self._compiled) > Database.PLAN_CACHE_SIZE:
                self._compiled.popitem(last=False)
        else:
            self._compiled.move_to_end(sql)
        return pair

    def processing_plan(self, plan: DistributedPlan) -> tuple:
        """The basic engine's final step over ``plan``'s fetched partitions
        (§5.2): each binding's staging schema and the plan over them, made
        once per compiled plan and kept on it.

        A staging schema holds the binding's pruned columns (which the SQL
        references exactly), all nullable: masking can null any column
        (§4.4).  Each table reference names its own binding, so a self-join
        reads two relations; only the residual multi-table predicates are
        left to apply, the owners applied the rest.
        """
        if plan.processing is None:
            catalog = {}
            for local_plan in plan.local_plans:
                table = self._schemas[local_plan.table]
                columns = [
                    table.column(name.rsplit(".", 1)[-1]) for name in local_plan.columns
                ]
                schema = TableSchema(
                    local_plan.table, [Column(c.name, c.column_type) for c in columns]
                )
                catalog[local_plan.binding] = ColumnRelation(schema, [])
            stmt = plan.statement
            statement = replace(
                stmt,
                where=plan.residual_where,
                tables=tuple(TableRef(ref.binding) for ref in stmt.tables),
                joins=tuple(
                    replace(join, table=TableRef(join.table.binding))
                    for join in stmt.joins
                ),
            )
            plan.processing = (
                [relation.schema for relation in catalog.values()],
                Planner(catalog).plan(statement),
            )
        return plan.processing

    def compile(self, stmt) -> DistributedPlan:
        if isinstance(stmt, str):
            return self.compile_text(stmt)[1]
        if not isinstance(stmt, SelectStmt):
            raise SqlExecutionError("the SMS planner only compiles SELECT")

        bindings = self._resolve_bindings(stmt)
        where_conjuncts = split_conjuncts(stmt.where)
        conjuncts = list(where_conjuncts)
        for join in stmt.joins:
            if join.kind != "inner":
                raise SqlExecutionError(
                    "the SMS planner supports inner joins only"
                )
            conjuncts.extend(split_conjuncts(join.condition))

        local_predicates: Dict[str, List[Expr]] = {b: [] for b in bindings}
        multi: List[Expr] = []
        residual_where: List[Expr] = []
        for conjunct in conjuncts:
            touched = self._bindings_of(conjunct, bindings)
            if len(touched) == 1:
                local_predicates[next(iter(touched))].append(conjunct)
            else:
                multi.append(conjunct)
                if conjunct in where_conjuncts:
                    residual_where.append(conjunct)

        aggregates = self._collect_aggregates(stmt)
        needed = self._needed_columns(stmt, bindings, multi)

        order = [ref.binding for ref in stmt.tables] + [
            join.table.binding for join in stmt.joins
        ]

        # Single-table aggregate pushdown (the Q2 path).
        partials = None
        if len(order) == 1 and aggregates:
            partials = _decompose_aggregates(aggregates)

        # On the pushdown path the local SQL computes partial aggregates
        # itself: ``partial_aggregate_plan`` rewrites the base plan.
        local_plans = {
            binding: self._local_plan(
                binding,
                bindings[binding],
                local_predicates[binding],
                needed[binding],
            )
            for binding in order
        }
        base = local_plans[order[0]]

        joins: List[JoinStage] = []
        in_tree: Set[str] = {order[0]}
        used: List[Expr] = []
        accumulated = list(base.columns)
        for binding in order[1:]:
            in_tree.add(binding)
            right = local_plans[binding]
            equi, residuals = self._pick_join_condition(
                multi, used, in_tree, binding, bindings
            )
            if equi is None:
                raise SqlExecutionError(
                    f"no equi-join condition connects {binding!r}; the SMS "
                    "planner does not compile cross joins"
                )
            left_key, right_key = equi
            joins.append(
                JoinStage(
                    left_key=left_key,
                    right=right,
                    right_key=right_key,
                    residual=combine_conjuncts(residuals),
                )
            )
            accumulated.extend(right.columns)

        leftover = [conjunct for conjunct in multi if conjunct not in used]
        if leftover:
            raise SqlExecutionError(
                f"unplaced join predicates: "
                f"{[conjunct.to_sql() for conjunct in leftover]}"
            )

        aggregate_stage = None
        if stmt.group_by or aggregates:
            group_names = [
                self._qualify(expr.name, bindings)
                if isinstance(expr, ColumnRef)
                else expr.to_sql().lower()
                for expr in stmt.group_by
            ]
            aggregate_stage = AggregateStage(
                group_exprs=tuple(stmt.group_by),
                group_names=group_names,
                aggregates=tuple(aggregates),
                partials=partials,
            )
        elif stmt.having is not None:
            raise SqlExecutionError("HAVING requires GROUP BY or aggregates")

        return DistributedPlan(
            base=base,
            joins=joins,
            aggregate=aggregate_stage,
            items=stmt.items,
            having=stmt.having,
            order_by=stmt.order_by,
            limit=stmt.limit,
            distinct=stmt.distinct,
            columns_after_joins=accumulated,
            statement=stmt,
            residual_where=combine_conjuncts(residual_where),
        )

    # ------------------------------------------------------------------
    # Local plans
    # ------------------------------------------------------------------
    def _local_plan(
        self,
        binding: str,
        table: str,
        predicates: List[Expr],
        columns: List[str],
    ) -> TableLocalPlan:
        where = combine_conjuncts(predicates)
        bare = [name.rsplit(".", 1)[-1] for name in columns]
        select_list = ", ".join(f"{binding}.{column}" for column in bare)
        sql = f"SELECT {select_list} FROM {table} {binding}"
        if where is not None:
            sql += f" WHERE {where.to_sql()}"
        return TableLocalPlan(
            binding=binding,
            table=table,
            sql=sql,
            columns=[f"{binding}.{column}" for column in bare],
        )

    # ------------------------------------------------------------------
    # Binding resolution (mirrors the local planner's rules)
    # ------------------------------------------------------------------
    def _resolve_bindings(self, stmt: SelectStmt) -> Dict[str, str]:
        bindings: Dict[str, str] = {}
        for ref in list(stmt.tables) + [join.table for join in stmt.joins]:
            if ref.table not in self._schemas:
                raise SqlCatalogError(f"unknown table: {ref.table!r}")
            if ref.binding in bindings:
                raise SqlCatalogError(f"duplicate binding: {ref.binding!r}")
            bindings[ref.binding] = ref.table
        return bindings

    def _owner_of(self, name: str, bindings: Dict[str, str]) -> str:
        lowered = name.lower()
        if "." in lowered:
            qualifier = lowered.split(".", 1)[0]
            if qualifier in bindings:
                return qualifier
        bare = lowered.rsplit(".", 1)[-1]
        owners = [
            binding
            for binding, table in bindings.items()
            if self._schemas[table].has_column(bare)
        ]
        if len(owners) == 1:
            return owners[0]
        if len(owners) > 1:
            raise SqlExecutionError(f"ambiguous column: {name!r}")
        raise SqlCatalogError(f"unknown column: {name!r}")

    def _qualify(self, name: str, bindings: Dict[str, str]) -> str:
        owner = self._owner_of(name, bindings)
        return f"{owner}.{name.lower().rsplit('.', 1)[-1]}"

    def _bindings_of(self, expr: Expr, bindings: Dict[str, str]) -> Set[str]:
        return {
            self._owner_of(name, bindings)
            for name in expr.referenced_columns()
        }

    # ------------------------------------------------------------------
    # Column pruning
    # ------------------------------------------------------------------
    def _needed_columns(
        self,
        stmt: SelectStmt,
        bindings: Dict[str, str],
        multi_conjuncts: List[Expr],
    ) -> Dict[str, List[str]]:
        """Which columns of each binding must survive the local projection."""
        needed: Dict[str, List[str]] = {binding: [] for binding in bindings}

        def note(name: str) -> None:
            owner = self._owner_of(name, bindings)
            bare = name.lower().rsplit(".", 1)[-1]
            if bare not in needed[owner]:
                needed[owner].append(bare)

        # ``*`` (qualifier None) keeps every binding's columns, ``t.*`` t's.
        stars = {item.star_qualifier for item in stmt.items if item.is_star}
        for binding, table in bindings.items():
            if None in stars or binding in stars:
                needed[binding] = list(self._schemas[table].column_names)

        sources: List[Expr] = [
            item.expr for item in stmt.items if item.expr is not None
        ]
        sources.extend(multi_conjuncts)
        sources.extend(stmt.group_by)
        if stmt.having is not None:
            sources.append(stmt.having)
        for order_item in stmt.order_by:
            sources.append(order_item.expr)
        for expr in sources:
            for name in expr.referenced_columns():
                # ORDER BY may reference projection aliases; skip those.
                try:
                    note(name)
                except SqlCatalogError:
                    aliases = {
                        item.alias for item in stmt.items if item.alias
                    }
                    if name.lower() not in aliases:
                        raise
        for binding in needed:
            if not needed[binding]:
                # A table joined purely for its filtering effect still needs
                # its join key, found among the multi conjuncts; fall back to
                # the first column to keep the stream non-empty.
                needed[binding].append(
                    self._schemas[bindings[binding]].column_names[0]
                )
        return needed

    # ------------------------------------------------------------------
    # Join conditions
    # ------------------------------------------------------------------
    def _pick_join_condition(
        self,
        multi: List[Expr],
        used: List[Expr],
        in_tree: Set[str],
        new_binding: str,
        bindings: Dict[str, str],
    ):
        """The equi condition linking ``new_binding`` plus residual filters."""
        equi: Optional[Tuple[str, str]] = None
        residuals: List[Expr] = []
        for conjunct in multi:
            if conjunct in used:
                continue
            touched = self._bindings_of(conjunct, bindings)
            if not touched <= in_tree or new_binding not in touched:
                continue
            used.append(conjunct)
            pair = self._as_equi_pair(conjunct, new_binding, bindings)
            if pair is not None and equi is None:
                equi = pair
            else:
                residuals.append(conjunct)
        return equi, residuals

    def _as_equi_pair(
        self, conjunct: Expr, new_binding: str, bindings: Dict[str, str]
    ) -> Optional[Tuple[str, str]]:
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            return None
        if not isinstance(conjunct.left, ColumnRef) or not isinstance(
            conjunct.right, ColumnRef
        ):
            return None
        left_owner = self._owner_of(conjunct.left.name, bindings)
        right_owner = self._owner_of(conjunct.right.name, bindings)
        if left_owner == right_owner:
            return None
        left_name = self._qualify(conjunct.left.name, bindings)
        right_name = self._qualify(conjunct.right.name, bindings)
        if right_owner == new_binding:
            return left_name, right_name
        if left_owner == new_binding:
            return right_name, left_name
        return None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _collect_aggregates(self, stmt: SelectStmt) -> List[FuncCall]:
        aggregates: List[FuncCall] = []
        seen = set()
        sources = [item.expr for item in stmt.items if item.expr is not None]
        if stmt.having is not None:
            sources.append(stmt.having)
        for expr in sources:
            for aggregate in find_aggregates(expr):
                key = aggregate.to_sql().lower()
                if key not in seen:
                    seen.add(key)
                    aggregates.append(aggregate)
        return aggregates


def partial_aggregate_plan(plan: DistributedPlan) -> TableLocalPlan:
    """Rewrite a single-table aggregate plan's local SQL to partial form.

    Used by both HadoopDB's map tasks and BestPeer++'s basic engine (§6.1.7:
    "sends the entire SQL query to each data owner peer ... The partial
    aggregation results are then sent back").
    """
    aggregate = plan.aggregate
    if aggregate is None or aggregate.partials is None:
        raise SqlExecutionError("plan has no decomposable aggregates")
    group_sqls = [expr.to_sql() for expr in aggregate.group_exprs]
    select_parts = list(group_sqls)
    for partial in aggregate.partials:
        select_parts.extend(partial.partial_sqls)
    sql = (
        f"SELECT {', '.join(select_parts)} "
        f"FROM {plan.base.table} {plan.base.binding}"
    )
    where_index = plan.base.sql.upper().find(" WHERE ")
    if where_index >= 0:
        sql += plan.base.sql[where_index:]
    if group_sqls:
        sql += " GROUP BY " + ", ".join(group_sqls)
    return TableLocalPlan(
        binding=plan.base.binding,
        table=plan.base.table,
        sql=sql,
        columns=[],
    )


def _decompose_aggregates(
    aggregates: Sequence[FuncCall],
) -> Optional[List[PartialAggregate]]:
    """Split algebraic aggregates into map-side partials + merge ops.

    Returns ``None`` when any aggregate is not algebraically decomposable
    (COUNT(DISTINCT ...)), in which case the driver falls back to shuffling
    raw rows.
    """
    partials: List[PartialAggregate] = []
    for call in aggregates:
        # ``f(*)`` counts rows whatever ``f`` is, as in the local executor.
        name = "count" if call.star else call.name.lower()
        if call.distinct or name not in ("count", "sum", "min", "max", "avg"):
            return None
        arg_sql = "*" if call.star else call.args[0].to_sql()
        if name == "avg":
            partials.append(
                PartialAggregate(
                    call,
                    [f"SUM({arg_sql})", f"COUNT({arg_sql})"],
                    ["sum", "sum"],
                    "div",
                )
            )
        else:
            # Partial counts and sums add up; partial minima and maxima fold.
            merge_op = name if name in ("min", "max") else "sum"
            partials.append(
                PartialAggregate(
                    call, [f"{name.upper()}({arg_sql})"], [merge_op], "identity"
                )
            )
    return partials
