"""Executes a :class:`~repro.plan.sms.DistributedPlan` as MapReduce jobs.

This driver is shared between HadoopDB and BestPeer++'s own MapReduce engine
(§5.4) — the job shapes are identical; only where the input splits come from
differs (PostgreSQL workers vs. BestPeer++ instances), which is abstracted
behind the ``local_execute`` callback.

The steps every executor runs at its coordinating node live here too:
:func:`aggregate_rows`, :func:`merge_partial_rows` / :func:`partial_merger`
and :func:`finalize_records`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import InputSplit, JobResult, MapReduceJob, SplitData
from repro.plan.sms import (
    AggregateStage,
    DistributedPlan,
    JoinStage,
    PartialAggregate,
    TableLocalPlan,
    partial_aggregate_plan,
)
from repro.sqlengine.compile import (
    compile_evaluator,
    compile_key,
    compile_predicate,
)
from repro.sqlengine.executor import compile_aggregates, sort_key
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
        aggregate = plan.aggregate
        columns = list(plan.columns_after_joins)
        jobs, join_path = self._run_join_chain(plan, query_id)

        if aggregate is None:
            if not plan.joins:
                # Q1 shape: one map-only job pushing the full selection down.
                jobs.append(
                    self.engine.run_job(
                        MapReduceJob(
                            name=f"{query_id}-select",
                            splits=self._table_splits(plan.base),
                            map_fn=lambda row: [(None, row)],
                        )
                    )
                )
        elif plan.joins or aggregate.partials is None:
            # The aggregation job reads the last join's HDFS output; without
            # joins, non-decomposable aggregates shuffle raw rows (rare path).
            splits = (
                self._hdfs_splits(join_path)
                if plan.joins
                else self._table_splits(plan.base)
            )
            jobs.append(self._run_aggregate_job(aggregate, splits, columns, query_id))
        else:
            jobs.append(self._run_partial_aggregate_job(plan, query_id))

        records = jobs[-1].records
        if aggregate is not None:
            if not records:
                # No map output, so no reducer ran — but a scalar aggregate
                # over nothing is still one row.  The coordinator applies the
                # shared rule: no job, no bytes, no simulated time.
                records, _ = aggregate_rows(aggregate, records, columns)
            columns = aggregate.output_columns
        records, columns = finalize_records(plan, records, columns)
        return DriverResult(columns=columns, records=records, jobs=jobs)

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def _table_splits(
        self, local_plan: TableLocalPlan, tag: Optional[str] = None
    ) -> List[InputSplit]:
        def read(host, index):
            local = self.local_execute(host, local_plan.sql)
            return local.records, local.seconds

        return self._splits(local_plan.table, read, tag)

    def _hdfs_splits(self, path: str, tag: Optional[str] = None) -> List[InputSplit]:
        """Each worker reads its share of the previous stage's HDFS output."""
        worker_count = len(self.workers)

        def read(host, index):
            records, seconds = self.engine.hdfs.read(path, host)
            return records[index::worker_count], seconds / worker_count

        return self._splits(path, read, tag)

    def _splits(self, label: str, read, tag: Optional[str]) -> List[InputSplit]:
        """One split per worker; ``read(host, index) -> (records, seconds)``."""
        splits = []
        for index, host in enumerate(self.workers):
            def fetch(host=host, index=index):
                records, seconds = read(host, index)
                if tag is not None:
                    records = [(tag, row) for row in records]
                return SplitData(records=records, local_seconds=seconds)

            splits.append(InputSplit(host=host, fetch=fetch, label=label))
        return splits

    # ------------------------------------------------------------------
    # Join chain (Q3/Q4/Q5 shapes)
    # ------------------------------------------------------------------
    def _run_join_chain(self, plan: DistributedPlan, query_id: str):
        """One shuffle-join job per stage; returns (jobs, last HDFS path)."""
        columns = list(plan.base.columns)
        jobs: List[JobResult] = []
        previous_path: Optional[str] = None
        for stage_index, stage in enumerate(plan.joins):
            lp, rp, out_columns, residual = lower_join_stage(stage, columns)
            if previous_path is None:
                left_splits = self._table_splits(plan.base, tag="L")
            else:
                left_splits = self._hdfs_splits(previous_path, tag="L")
            right_splits = self._table_splits(stage.right, tag="R")

            def map_fn(tagged, lp=lp, rp=rp):
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
        return jobs, previous_path

    # ------------------------------------------------------------------
    # Aggregation jobs
    # ------------------------------------------------------------------
    def _run_aggregate_job(
        self, aggregate: AggregateStage, splits, columns, query_id: str
    ) -> JobResult:
        """Shuffle rows by group key; each reducer aggregates its groups.

        One job for both callers: after a join chain the splits read the
        last stage's HDFS output, for a non-decomposable single-table
        aggregate they read the workers' tables.
        """
        layout = RowLayout(columns)
        group_key = compile_key(aggregate.group_exprs, layout)
        compute = compile_aggregates(aggregate.aggregates, layout)

        def map_fn(row):
            return [(group_key(row), row)]

        def reduce_fn(key, rows):
            return [tuple(key) + compute(rows)]

        return self.engine.run_job(
            MapReduceJob(
                name=f"{query_id}-aggregate",
                splits=splits,
                map_fn=map_fn,
                reduce_fn=reduce_fn,
                num_reducers=len(self.workers),
            )
        )

    def _run_partial_aggregate_job(self, plan: DistributedPlan, query_id: str):
        """The Q2 path: maps compute partial aggregates via local SQL; the
        reduce round merges them."""
        group_count = len(plan.aggregate.group_exprs)
        merge = partial_merger(plan.aggregate.partials)

        def partial_map(row):
            return [(tuple(row[:group_count]), tuple(row[group_count:]))]

        def partial_reduce(key, partial_rows):
            return [tuple(key) + merge(partial_rows)]

        return self.engine.run_job(
            MapReduceJob(
                name=f"{query_id}-partial-aggregate",
                splits=self._table_splits(partial_aggregate_plan(plan)),
                map_fn=partial_map,
                reduce_fn=partial_reduce,
                # A scalar aggregate has a single group; more reducers would
                # sit idle.
                num_reducers=1 if group_count == 0 else len(self.workers),
            )
        )


# ----------------------------------------------------------------------
# Steps with one definition each, run by every executor
# ----------------------------------------------------------------------
def lower_join_stage(stage: JoinStage, columns: List[str]):
    """Resolve one join stage against the accumulated stream's ``columns``.

    Returns ``(left key position, right key position, joined columns,
    residual)``.  The residual runs per joined row in every reducer or
    owner: it is lowered once per stage instead of tree-walking per row
    (``None`` when the stage has none).
    """
    out_columns = columns + stage.right.columns
    residual = (
        None
        if stage.residual is None
        else compile_predicate(stage.residual, RowLayout(out_columns))
    )
    return (
        RowLayout(columns).resolve(stage.left_key),
        RowLayout(stage.right.columns).resolve(stage.right_key),
        out_columns,
        residual,
    )


def _first_seen_groups(aggregate, keys, members, empty_group):
    """``key -> [members]`` in first-seen key order.

    A scalar aggregate (no GROUP BY) over nothing still has its one group,
    holding ``empty_group`` — SQL answers one row, COUNT = 0 and NULL for
    the rest; a grouped aggregate over nothing has no group.
    """
    groups: Dict[tuple, List[tuple]] = {}
    for key, member in zip(keys, members):
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = bucket = []
        bucket.append(member)
    if not groups and not aggregate.group_exprs:
        groups[()] = empty_group
    return groups


def aggregate_rows(
    aggregate: AggregateStage, rows: Sequence[tuple], columns: Sequence[str]
) -> Tuple[List[tuple], List[str]]:
    """Group ``rows`` (laid out as ``columns``), aggregate each group; returns
    ``(records, column names)`` for :func:`finalize_records`.

    The basic engine's raw-row arm, the parallel engine's root, and this
    driver when no map output reached a reducer.
    """
    layout = RowLayout(columns)
    group_key = compile_key(aggregate.group_exprs, layout)
    compute = compile_aggregates(aggregate.aggregates, layout)
    groups = _first_seen_groups(aggregate, map(group_key, rows), rows, [])
    records = [key + compute(members) for key, members in groups.items()]
    return records, aggregate.output_columns


def merge_partial_rows(
    aggregate: AggregateStage, rows: Sequence[tuple]
) -> Tuple[List[tuple], List[str]]:
    """Merge the owners' partial-aggregate rows (group keys first) and
    finalize them: §6.1.7's "final aggregation" at the query peer."""
    count = len(aggregate.group_exprs)
    merge = partial_merger(aggregate.partials)
    width = sum(len(partial.partial_sqls) for partial in aggregate.partials)
    groups = _first_seen_groups(
        aggregate,
        (tuple(row[:count]) for row in rows),
        (tuple(row[count:]) for row in rows),
        [(None,) * width],
    )
    records = [key + merge(members) for key, members in groups.items()]
    return records, aggregate.output_columns


def partial_merger(partials: Sequence[PartialAggregate]):
    """``one group's partial rows -> its finalized aggregate values``.

    The rows hold only the partial values (group keys stripped).  Built once
    per job or query; HadoopDB's reducers and BestPeer++'s basic engine run
    the same merger.
    """
    merge_ops = [op for partial in partials for op in partial.merge_ops]

    def merge(partial_rows: Sequence[tuple]) -> Tuple[object, ...]:
        merged = list(partial_rows[0])
        for row in partial_rows[1:]:
            for position, op in enumerate(merge_ops):
                merged[position] = _merge_value(op, merged[position], row[position])
        return _finalize_partials(partials, merged)

    return merge


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
            sortable = list(map(sort_key, keys))
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
