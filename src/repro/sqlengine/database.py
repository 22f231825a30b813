"""The public database facade.

One :class:`Database` instance plays the role the local MySQL server plays on
a BestPeer++ normal peer (or PostgreSQL on a HadoopDB worker): it owns a
catalogue of tables and executes SQL text.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import collections

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.batch import ColumnBatch
from repro.sqlengine.subquery import contains_subquery, resolve_subqueries
from repro.sqlengine.executor import (
    ExecStats,
    Executor,
    interpreted_evaluator,
    interpreted_predicate,
)
from repro.sqlengine.expr import RowLayout
from repro.sqlengine.parser import (
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    InsertStmt,
    SelectStmt,
    UpdateStmt,
    parse,
)
from repro.sqlengine.planner import Planner, explain_plan, plan_tables
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.stats import TableStats, collect_table_stats
from repro.sqlengine.table import Table
from repro.sqlengine.vexecutor import VectorizedExecutor

#: The semantic oracle, then the production path.
EXECUTION_MODES = ("interpreted", "vectorized")


class QueryResult:
    """What :meth:`Database.execute` returns: one :class:`ColumnBatch` plus
    metadata.  ``rows`` and ``byte_size`` are derived from the batch on
    first use; the batch is immutable, so neither ever goes stale.  A
    repeated SELECT may hand out the same batch (and its ``rows`` list)
    again: read, never write, them."""

    def __init__(
        self,
        batch: ColumnBatch,
        stats: Optional[ExecStats] = None,
        rowcount: int = 0,
    ) -> None:
        self.batch = batch
        self.columns = [column.rsplit(".", 1)[-1] for column in batch.columns]
        self.qualified_columns = batch.columns
        self.stats = stats or ExecStats()
        # For INSERT/UPDATE/DELETE: the number of affected rows.
        self.rowcount = rowcount if rowcount else len(batch)

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return self.batch.rows

    @property
    def byte_size(self) -> int:
        """Approximate wire size of the result set."""
        return self.batch.byte_size

    def scalar(self) -> object:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise SqlExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows"
            )
        return self.rows[0][0]

    def column(self, name: str) -> List[object]:
        """All values of one output column."""
        lowered = name.lower()
        try:
            position = self.columns.index(lowered)
        except ValueError:
            raise SqlExecutionError(f"no output column {name!r}") from None
        return list(self.batch.vectors[position])

    def __len__(self) -> int:
        return len(self.batch)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"QueryResult(columns={self.columns}, rows={len(self)})"


def _no_rows(rowcount: int = 0) -> QueryResult:
    """The result of a statement that returns no rows (DDL, DML)."""
    return QueryResult(ColumnBatch.from_rows([], []), rowcount=rowcount)


@dataclasses.dataclass(frozen=True)
class PreparedSelect:
    """A parsed-and-planned SELECT, shareable across identically-schemed peers.

    BestPeer++ broadcasts the *same* subquery to every data owner; preparing
    it once and shipping the plan replaces N parse+plan passes with one.
    ``tables`` lists the base tables the plan reads so the executing peer can
    pre-check its catalogue (preserving broadcast skip-if-absent semantics).
    """

    sql: str
    plan: object
    tables: Tuple[str, ...]


class _CachedPlan:
    """One plan-cache entry: the catalogue state it was made under, the plan
    (``None`` when the entry only remembers a shipped plan's result), whether
    :meth:`Database.prepare` may hand the plan out, and the last
    ``(plan, batch, stats)`` run under that state."""

    __slots__ = ("state", "plan", "shareable", "result")

    def __init__(self, state: tuple, plan: object, shareable: bool) -> None:
        self.state = state
        self.plan = plan
        self.shareable = shareable
        self.result: Optional[Tuple[object, ColumnBatch, ExecStats]] = None


class Database:
    """An embedded relational database with a SQL interface.

    Repeated statements hit an LRU parse+plan cache keyed by the SQL text
    and the catalogue state (every table object and its mutation counter),
    so any DDL/insert/delete invalidates affected entries without explicit
    hooks; plans do not depend on the execution mode.  An entry also keeps
    its plan's last result: a SELECT repeated against an unchanged catalogue
    — same plan object, same table objects, same versions, same mode —
    replays the immutable batch and a fresh copy of its :class:`ExecStats`
    instead of running the kernels again, so callers charge the same
    simulated cost either way.  ``execution_mode`` selects
    one of :data:`EXECUTION_MODES`: ``"vectorized"`` (the default, and what
    every peer and engine runs) executes batch kernels over column-major
    storage; ``"interpreted"`` walks expression trees per row through
    :class:`~repro.sqlengine.executor.Executor` and exists as the semantic
    oracle the vectorized path is tested against.  Both must produce
    identical rows, stats, and errors.  Assigning ``execution_mode`` (even
    the current one) forgets every remembered result, so the oracle, a mode
    switch and a timed benchmark run always execute.
    """

    #: Default maximum number of cached plans per database.
    PLAN_CACHE_SIZE = 128

    def __init__(
        self,
        name: str = "db",
        plan_cache_size: int = PLAN_CACHE_SIZE,
        execution_mode: str = "vectorized",
    ) -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._plan_cache: "collections.OrderedDict[str, _CachedPlan]" = (
            collections.OrderedDict()
        )
        self.execution_mode = execution_mode
        self._plan_cache_size = plan_cache_size
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    @property
    def execution_mode(self) -> str:
        return self._execution_mode

    @execution_mode.setter
    def execution_mode(self, mode: str) -> None:
        if mode not in EXECUTION_MODES:
            raise SqlExecutionError(
                f"unknown execution mode {mode!r}; expected one of "
                f"{', '.join(EXECUTION_MODES)}"
            )
        self._execution_mode = mode
        for entry in self._plan_cache.values():
            entry.result = None

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise SqlCatalogError(f"table already exists: {schema.name!r}")
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        lowered = name.lower()
        if lowered not in self._tables:
            if if_exists:
                return
            raise SqlCatalogError(f"no such table: {name!r}")
        del self._tables[lowered]

    def table(self, name: str) -> Table:
        lowered = name.lower()
        table = self._tables.get(lowered)
        if table is None:
            raise SqlCatalogError(f"no such table: {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def table_stats(self, name: str) -> TableStats:
        return collect_table_stats(self.table(name))

    @property
    def total_bytes(self) -> int:
        """Approximate size of all stored data (feeds storage metrics)."""
        return sum(table.byte_size for table in self._tables.values())

    # ------------------------------------------------------------------
    # SQL execution
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> QueryResult:
        """Parse and run one SQL statement."""
        entry = self._cached_plan(sql)
        if entry is not None:
            self.plan_cache_hits += 1
            return self._run_cached(entry, entry.plan)
        statement = parse(sql)
        if isinstance(statement, SelectStmt):
            self.plan_cache_misses += 1
            return self.execute_select(statement, cache_key=sql)
        if isinstance(statement, InsertStmt):
            return self._execute_insert(statement)
        if isinstance(statement, CreateTableStmt):
            self.create_table(
                TableSchema(statement.name, statement.columns, statement.primary_key)
            )
            return _no_rows()
        if isinstance(statement, CreateIndexStmt):
            self.table(statement.table).create_index(
                statement.name, statement.column, statement.unique
            )
            return _no_rows()
        if isinstance(statement, UpdateStmt):
            return self._execute_update(statement)
        if isinstance(statement, DeleteStmt):
            return self._execute_delete(statement)
        if isinstance(statement, DropTableStmt):
            self.drop_table(statement.name, statement.if_exists)
            return _no_rows()
        raise SqlExecutionError(f"unsupported statement: {type(statement).__name__}")

    def explain(self, sql: str) -> str:
        """The physical plan for a SELECT, as indented text."""
        statement = parse(sql)
        if not isinstance(statement, SelectStmt):
            raise SqlExecutionError("EXPLAIN supports SELECT statements only")
        statement = self._resolve_subqueries(statement)
        plan = Planner(self._tables).plan(statement)
        return explain_plan(plan)

    def execute_select(
        self, statement: SelectStmt, cache_key: Optional[str] = None
    ) -> QueryResult:
        resolved = self._resolve_subqueries(statement)
        plan = Planner(self._tables).plan(resolved)
        if cache_key is None:
            return self._run_plan(plan)
        # Safe even for resolved subqueries: the cache key includes every
        # table's data version, so new data re-plans.  Such a plan inlines
        # local results, so prepare() must not hand it out.
        entry = self._store_plan(cache_key, plan, shareable=resolved is statement)
        return self._run_cached(entry, plan)

    def _run_cached(self, entry: _CachedPlan, plan: object) -> QueryResult:
        """Run ``plan`` under ``entry``'s current catalogue state, or replay
        the entry's last result when it was this very plan's.  Only results
        are remembered: a plan that raises raises again next time."""
        if entry.result is not None and entry.result[0] is plan:
            _, batch, stats = entry.result
            return QueryResult(batch, dataclasses.replace(stats))
        result = self._run_plan(plan)
        entry.result = (plan, result.batch, dataclasses.replace(result.stats))
        return result

    def _run_plan(self, plan: object) -> QueryResult:
        if self._execution_mode == "vectorized":
            _, batch, stats = VectorizedExecutor(self._tables).execute(plan)
        else:
            layout, rows, stats = Executor(self._tables).execute(plan)
            batch = ColumnBatch.from_rows(layout.columns, rows)
        return QueryResult(batch, stats)

    # ------------------------------------------------------------------
    # Plan cache & prepared statements
    # ------------------------------------------------------------------
    def _catalog_state(self) -> Tuple[Tuple[str, Table, int], ...]:
        """The cache-keying fingerprint: every table object (compared by
        identity, so a dropped and recreated table never matches) and its
        mutation counter."""
        return tuple(
            (name, table, table.version)
            for name, table in sorted(self._tables.items())
        )

    def _entry(self, sql: str) -> Optional[_CachedPlan]:
        """The entry for ``sql`` if made under the current catalogue state;
        a stale one is dropped on sight, with the result it holds."""
        entry = self._plan_cache.get(sql)
        if entry is None:
            return None
        if entry.state != self._catalog_state():
            del self._plan_cache[sql]
            return None
        self._plan_cache.move_to_end(sql)
        return entry

    def _cached_plan(self, sql: str) -> Optional[_CachedPlan]:
        """The current entry holding a plan for ``sql``, if any."""
        entry = self._entry(sql)
        return None if entry is None or entry.plan is None else entry

    def _store_plan(
        self, sql: str, plan: object, shareable: bool = True
    ) -> _CachedPlan:
        entry = self._plan_cache[sql] = _CachedPlan(
            self._catalog_state(), plan, shareable
        )
        self._plan_cache.move_to_end(sql)
        while len(self._plan_cache) > self._plan_cache_size:
            self._plan_cache.popitem(last=False)
        return entry

    def clear_plan_cache(self) -> None:
        self._plan_cache.clear()

    @property
    def plan_cache_len(self) -> int:
        return len(self._plan_cache)

    def prepare(self, sql: str) -> PreparedSelect:
        """Parse and plan a SELECT once, for reuse across identical catalogues.

        Shares :meth:`execute`'s plan cache (and its hit/miss counters).
        Statements with IN-subqueries are rejected: their plans inline
        locally-resolved results, which are not shareable across peers.
        """
        entry = self._cached_plan(sql)
        if entry is not None:
            plan, shareable = entry.plan, entry.shareable
            self.plan_cache_hits += shareable
        else:
            statement = parse(sql)
            if not isinstance(statement, SelectStmt):
                raise SqlExecutionError("prepare supports SELECT statements only")
            shareable = not (
                contains_subquery(statement.where)
                or contains_subquery(statement.having)
            )
            if shareable:
                self.plan_cache_misses += 1
                plan = Planner(self._tables).plan(statement)
                self._store_plan(sql, plan)
        if not shareable:
            raise SqlExecutionError(
                "cannot prepare a statement containing subqueries"
            )
        return PreparedSelect(sql, plan, plan_tables(plan))

    def execute_prepared(self, prepared: PreparedSelect) -> QueryResult:
        """Run a plan prepared on an identically-schemed peer.

        Missing tables raise :class:`SqlCatalogError` so broadcast callers
        keep their skip-if-absent semantics.  Any execution-time mismatch
        (e.g. the plan probes an index this peer lacks) falls back to a
        fresh local parse+plan of the original SQL, and only a plan that ran
        counts as a plan-cache hit.  The result is remembered on this
        database's entry for the text (one without a plan of its own if the
        text was never planned here), for this plan object only.
        """
        for name in prepared.tables:
            if name not in self._tables:
                raise SqlCatalogError(f"no such table: {name!r}")
        entry = self._entry(prepared.sql)
        if entry is None:
            entry = self._store_plan(prepared.sql, None, shareable=False)
        try:
            result = self._run_cached(entry, prepared.plan)
        except SqlExecutionError:
            return self.execute(prepared.sql)
        self.plan_cache_hits += 1
        return result

    def _resolve_subqueries(self, statement: SelectStmt) -> SelectStmt:
        """Execute uncorrelated IN-subqueries and inline their results."""
        if not contains_subquery(statement.where) and not contains_subquery(
            statement.having
        ):
            return statement

        def run(sub_statement) -> list:
            return list(self.execute_select(sub_statement).rows)

        return dataclasses.replace(
            statement,
            where=resolve_subqueries(statement.where, run),
            having=resolve_subqueries(statement.having, run),
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _execute_insert(self, statement: InsertStmt) -> QueryResult:
        table = self.table(statement.table)
        if statement.columns:
            positions = [
                table.schema.column_index(column) for column in statement.columns
            ]
            width = len(table.schema.columns)
            expanded = []
            for row in statement.rows:
                if len(row) != len(positions):
                    raise SqlCatalogError(
                        f"INSERT names {len(positions)} columns but supplies "
                        f"{len(row)} values"
                    )
                values: List[object] = [None] * width
                for position, value in zip(positions, row):
                    values[position] = value
                expanded.append(tuple(values))
            rows = expanded
        else:
            rows = list(statement.rows)
        table.insert_many(rows)
        return _no_rows(len(rows))

    def _execute_update(self, statement: UpdateStmt) -> QueryResult:
        # UPDATE and DELETE visit one stored row at a time, and no workload
        # runs them: they evaluate with the oracle, ``Expr.evaluate``.
        table = self.table(statement.table)
        layout = _row_layout(table)
        assignments = [
            (table.schema.column_index(column), interpreted_evaluator(expr, layout))
            for column, expr in statement.assignments
        ]
        matches = (
            None
            if statement.where is None
            else interpreted_predicate(statement.where, layout)
        )

        def new_rows():
            for row_id, row in zip(table.row_ids(), table.rows()):
                if matches is not None and not matches(row):
                    continue
                values = list(row)
                for position, evaluate in assignments:
                    values[position] = evaluate(row)
                yield row_id, values

        # Nothing is written until every new row is computed and checked.
        return _no_rows(table.update_rows(new_rows()))

    def _execute_delete(self, statement: DeleteStmt) -> QueryResult:
        table = self.table(statement.table)
        if statement.where is None:
            deleted = len(table)
            table.truncate()
        else:
            deleted = table.delete_where(
                interpreted_predicate(statement.where, _row_layout(table))
            )
        return _no_rows(deleted)


def _row_layout(table: Table) -> RowLayout:
    """A stored row's layout: the table's columns, qualified by its name."""
    return RowLayout(
        [f"{table.schema.name}.{column}" for column in table.schema.column_names]
    )
