"""Executes a :class:`~repro.hadoopdb.sms.DistributedPlan` as MapReduce jobs.

This driver is shared between HadoopDB and BestPeer++'s own MapReduce engine
(§5.4) — the job shapes are identical; only where the input splits come from
differs (PostgreSQL workers vs. BestPeer++ instances), which is abstracted
behind the ``local_execute`` callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.hadoopdb.sms import (
    AggregateStage,
    DistributedPlan,
    JoinStage,
    TableLocalPlan,
    partial_aggregate_plan,
)
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import InputSplit, JobResult, MapReduceJob, SplitData
from repro.sqlengine.compile import (
    compile_evaluator,
    compile_key,
    compile_predicate,
)
from repro.sqlengine.executor import _sort_key, compile_aggregates
from repro.sqlengine.expr import ColumnRef, RowLayout


@dataclass
class LocalResult:
    """What running a pushed-down SQL fragment on one worker yields."""

    records: List[tuple]
    seconds: float


# (host, sql) -> LocalResult
LocalExecuteFn = Callable[[str, str], LocalResult]


@dataclass
class DriverResult:
    """Final records plus per-job accounting."""

    columns: List[str]
    records: List[tuple]
    jobs: List[JobResult]

    @property
    def duration_s(self) -> float:
        """Jobs run sequentially (§7: 'processed sequentially')."""
        return sum(job.duration_s for job in self.jobs)


class DistributedPlanDriver:
    """Runs compiled plans over a MapReduce engine."""

    def __init__(
        self,
        engine: MapReduceEngine,
        workers: Sequence[str],
        local_execute: LocalExecuteFn,
    ) -> None:
        self.engine = engine
        self.workers = list(workers)
        self.local_execute = local_execute

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, plan: DistributedPlan, query_id: str) -> DriverResult:
        jobs: List[JobResult] = []

        if not plan.joins and plan.aggregate is None:
            # Q1 shape: one map-only job pushing the full selection down.
            result = self.engine.run_job(
                MapReduceJob(
                    name=f"{query_id}-select",
                    splits=self._table_splits(plan.base),
                    map_fn=lambda row: [(None, row)],
                )
            )
            jobs.append(result)
            columns = list(plan.columns_after_joins)
            records = result.records
        elif not plan.joins and plan.aggregate is not None:
            result, columns = self._run_single_table_aggregate(plan, query_id)
            jobs.append(result)
            records = result.records
        else:
            records, columns, join_jobs = self._run_join_chain(plan, query_id)
            jobs.extend(join_jobs)
            if plan.aggregate is not None:
                agg_result, columns = self._run_aggregate_job(
                    plan, query_id, len(jobs)
                )
                jobs.append(agg_result)
                records = agg_result.records

        records, columns = self._finalize(plan, records, columns)
        return DriverResult(columns=columns, records=records, jobs=jobs)

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def _table_splits(
        self, local_plan: TableLocalPlan, tag: Optional[str] = None
    ) -> List[InputSplit]:
        splits = []
        for host in self.workers:
            def fetch(host=host, sql=local_plan.sql, tag=tag):
                local = self.local_execute(host, sql)
                records = local.records
                if tag is not None:
                    records = [(tag, row) for row in records]
                return SplitData(records=records, local_seconds=local.seconds)

            splits.append(
                InputSplit(host=host, fetch=fetch, label=local_plan.table)
            )
        return splits

    def _hdfs_splits(self, path: str, tag: Optional[str] = None) -> List[InputSplit]:
        """Each worker reads its share of the previous stage's HDFS output."""
        worker_count = len(self.workers)
        splits = []
        for index, host in enumerate(self.workers):
            def fetch(host=host, index=index, tag=tag):
                records, seconds = self.engine.hdfs.read(path, host)
                share = records[index::worker_count]
                if tag is not None:
                    share = [(tag, row) for row in share]
                return SplitData(
                    records=share, local_seconds=seconds / worker_count
                )

            splits.append(InputSplit(host=host, fetch=fetch, label=path))
        return splits

    # ------------------------------------------------------------------
    # Join chain (Q3/Q4/Q5 shapes)
    # ------------------------------------------------------------------
    def _run_join_chain(self, plan: DistributedPlan, query_id: str):
        columns = list(plan.base.columns)
        jobs: List[JobResult] = []
        previous_path: Optional[str] = None
        for stage_index, stage in enumerate(plan.joins):
            left_layout = RowLayout(columns)
            left_position = left_layout.resolve(stage.left_key)
            right_layout = RowLayout(stage.right.columns)
            right_position = right_layout.resolve(stage.right_key)

            if previous_path is None:
                left_splits = self._table_splits(plan.base, tag="L")
            else:
                left_splits = self._hdfs_splits(previous_path, tag="L")
            right_splits = self._table_splits(stage.right, tag="R")

            out_columns = columns + stage.right.columns
            # The residual runs per joined row in every reducer: lower it
            # once per stage instead of tree-walking per row.
            residual = (
                None
                if stage.residual is None
                else compile_predicate(stage.residual, RowLayout(out_columns))
            )

            def map_fn(tagged, lp=left_position, rp=right_position):
                tag, row = tagged
                key = row[lp] if tag == "L" else row[rp]
                if key is None:
                    return []
                return [(key, tagged)]

            def reduce_fn(key, tagged_rows, residual=residual):
                lefts = [row for tag, row in tagged_rows if tag == "L"]
                rights = [row for tag, row in tagged_rows if tag == "R"]
                joined = [left + right for left in lefts for right in rights]
                return joined if residual is None else list(filter(residual, joined))

            # Every stage persists to HDFS ("The join results are then
            # written to HDFS", §6.1.9); the next join or the aggregation
            # job reads it back.
            output_path = f"/{query_id}/stage-{stage_index}"
            result = self.engine.run_job(
                MapReduceJob(
                    name=f"{query_id}-join-{stage_index}",
                    splits=left_splits + right_splits,
                    map_fn=map_fn,
                    reduce_fn=reduce_fn,
                    num_reducers=len(self.workers),
                    output_path=output_path,
                )
            )
            jobs.append(result)
            previous_path = output_path
            columns = out_columns
        self._last_join_path = previous_path
        return jobs[-1].records, columns, jobs

    # ------------------------------------------------------------------
    # Aggregation jobs
    # ------------------------------------------------------------------
    def _run_aggregate_job(
        self, plan: DistributedPlan, query_id: str, stage_index: int
    ):
        aggregate = plan.aggregate
        layout = RowLayout(plan.columns_after_joins)
        aggregates = aggregate.aggregates
        group_key = compile_key(aggregate.group_exprs, layout)
        compute = compile_aggregates(aggregates, layout)

        def map_fn(row):
            return [(group_key(row), row)]

        def reduce_fn(key, rows):
            return [tuple(key) + compute(rows)]

        result = self.engine.run_job(
            MapReduceJob(
                name=f"{query_id}-aggregate",
                splits=self._hdfs_splits(self._last_join_path),
                map_fn=map_fn,
                reduce_fn=reduce_fn,
                num_reducers=len(self.workers),
            )
        )
        columns = aggregate.group_names + [
            call.to_sql().lower() for call in aggregates
        ]
        return result, columns

    def _run_single_table_aggregate(self, plan: DistributedPlan, query_id: str):
        aggregate = plan.aggregate
        group_count = len(aggregate.group_exprs)
        columns = aggregate.group_names + [
            call.to_sql().lower() for call in aggregate.aggregates
        ]

        if aggregate.partials is None:
            # Non-decomposable aggregates: shuffle raw rows (rare path).
            layout = RowLayout(plan.base.columns)
            group_key = compile_key(aggregate.group_exprs, layout)
            compute = compile_aggregates(aggregate.aggregates, layout)

            def raw_map(row):
                return [(group_key(row), row)]

            def raw_reduce(key, rows):
                return [tuple(key) + compute(rows)]

            result = self.engine.run_job(
                MapReduceJob(
                    name=f"{query_id}-aggregate",
                    splits=self._table_splits(plan.base),
                    map_fn=raw_map,
                    reduce_fn=raw_reduce,
                    num_reducers=len(self.workers),
                )
            )
            return result, columns

        # The Q2 path: maps compute partial aggregates via local SQL; the
        # reduce round merges them.
        partial_plan = self._partial_aggregate_plan(plan)
        partials = aggregate.partials
        merge_ops: List[str] = []
        for partial in partials:
            merge_ops.extend(partial.merge_ops)

        def partial_map(row):
            return [(tuple(row[:group_count]), tuple(row[group_count:]))]

        def partial_reduce(key, partial_rows):
            merged = list(partial_rows[0])
            for partial_row in partial_rows[1:]:
                for position, op in enumerate(merge_ops):
                    merged[position] = _merge_value(
                        op, merged[position], partial_row[position]
                    )
            return [tuple(key) + _finalize_partials(partials, merged)]

        result = self.engine.run_job(
            MapReduceJob(
                name=f"{query_id}-partial-aggregate",
                splits=self._table_splits(partial_plan),
                map_fn=partial_map,
                reduce_fn=partial_reduce,
                # A scalar aggregate has a single group; more reducers would
                # sit idle.
                num_reducers=1 if group_count == 0 else len(self.workers),
            )
        )
        return result, columns

    def _partial_aggregate_plan(self, plan: DistributedPlan) -> TableLocalPlan:
        """Rewrite the base local SQL to compute partial aggregates."""
        return partial_aggregate_plan(plan)

    # ------------------------------------------------------------------
    # Driver-side finishing: HAVING, projection, DISTINCT, ORDER, LIMIT
    # ------------------------------------------------------------------
    def _finalize(self, plan: DistributedPlan, records, columns):
        return finalize_records(plan, records, columns)


def finalize_records(plan: DistributedPlan, records, columns):
    """Apply HAVING, projection, ORDER BY, DISTINCT and LIMIT serially.

    Shared by every distributed execution path (HadoopDB's driver and
    BestPeer++'s engines): these steps run on the coordinating node over the
    already-small final record stream.  Every expression is resolved once
    against the record layout, never per row.
    """
    layout = RowLayout(columns)
    if plan.having is not None:
        records = list(filter(compile_predicate(plan.having, layout), records))

    output_names: List[str] = []
    getters = []
    for item in plan.items:
        if item.is_star:
            for position, column in enumerate(layout.columns):
                if item.star_qualifier is not None and not column.startswith(
                    item.star_qualifier + "."
                ):
                    continue
                output_names.append(column)
                getters.append(itemgetter(position))
            continue
        output_names.append(item.output_name().lower())
        getters.append(_row_getter(item.expr, layout))
    # ``zip`` pulls one value per getter per row: row-major, like the
    # reference, so the first error raised is the same one.
    projected = list(zip(*(map(getter, records) for getter in getters)))

    if plan.order_by:
        # One key vector per ORDER BY item, one index permutation sorted
        # last key to first (stable sorts compose), applied once.
        out_layout = RowLayout(output_names)
        order = list(range(len(projected)))
        for item in reversed(plan.order_by):
            try:
                keys = list(map(_row_getter(item.expr, out_layout), projected))
            except SqlExecutionError:
                # Not in the projection: the key reads the merged records
                # (the local planner's sort-below-project case).
                keys = list(map(_row_getter(item.expr, layout), records))
            sortable = list(map(_sort_key, keys))
            order.sort(key=sortable.__getitem__, reverse=not item.ascending)
        projected = [projected[i] for i in order]

    if plan.distinct:
        # After the sort, as the local plan's sort-below-project has it; for
        # keys of the projected row itself either order gives the same rows.
        projected = list(dict.fromkeys(projected))
    if plan.limit is not None:
        projected = projected[: plan.limit]
    return projected, output_names


def _row_getter(expr, layout: RowLayout):
    """``row -> value`` for ``expr``: an ``itemgetter`` for a bare column."""
    if isinstance(expr, ColumnRef) and layout.has(expr.name):
        return itemgetter(layout.resolve(expr.name))
    return compile_evaluator(expr, layout)


def merge_partial_aggregates(partials, partial_rows: Sequence[tuple]) -> Tuple[object, ...]:
    """Merge map-side partial aggregate rows and finalize them.

    ``partial_rows`` hold only the partial values (group keys stripped);
    returns the finalized aggregate values.  Shared by HadoopDB's reducers
    and BestPeer++'s basic engine (§6.1.7's "final aggregation").
    """
    merge_ops: List[str] = []
    for partial in partials:
        merge_ops.extend(partial.merge_ops)
    merged = list(partial_rows[0])
    for row in partial_rows[1:]:
        for position, op in enumerate(merge_ops):
            merged[position] = _merge_value(op, merged[position], row[position])
    return _finalize_partials(partials, merged)


def _merge_value(op: str, left: object, right: object) -> object:
    if left is None:
        return right
    if right is None:
        return left
    if op == "sum":
        return left + right
    if op == "min":
        return min(left, right)
    return max(left, right)


def _finalize_partials(partials, merged: List[object]) -> Tuple[object, ...]:
    values: List[object] = []
    position = 0
    for partial in partials:
        width = len(partial.partial_sqls)
        chunk = merged[position : position + width]
        position += width
        if partial.finalize == "div":
            total, count = chunk
            values.append(None if not count else total / count)
        else:
            value = chunk[0]
            if partial.call.name.lower() == "count" and value is None:
                value = 0
            values.append(value)
    return tuple(values)
