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
from itertools import compress, count
from operator import add, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import (
    InputSplit,
    JobResult,
    MapOutput,
    MapReduceJob,
    SplitData,
    key_order,
)
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
from repro.sqlengine.batch import ColumnBatch, concat_text_offset
from repro.sqlengine.executor import compile_aggregates, sort_key
from repro.sqlengine.expr import ColumnRef, RowLayout

#: A join shuffles ``(tag, row)``, priced as a record: the one-letter tag
#: (1 + 4 bytes) plus the row as one value, its text plus 4.
TAGGED_ROW_BYTES = 9


@dataclass
class LocalResult:
    """What running a pushed-down SQL fragment on one worker yields: its
    result batch, whose rows and row widths are read, never written, and
    the simulated seconds it took."""

    batch: ColumnBatch
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
        try:
            jobs = self._run_jobs(plan, query_id)
        finally:
            # The chain's stage files are the query's temporary files: gone
            # once read, or once the query failed (no simulated cost).
            hdfs = self.engine.hdfs
            for index in range(len(plan.joins)):
                path = _stage_path(query_id, index)
                if hdfs is not None and hdfs.exists(path):
                    hdfs.delete(path)

        aggregate = plan.aggregate
        columns = list(plan.columns_after_joins)
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

    def _run_jobs(self, plan: DistributedPlan, query_id: str) -> List[JobResult]:
        """The join chain, then the job that finishes the query."""
        aggregate = plan.aggregate
        jobs = self._run_join_chain(plan, query_id)
        if aggregate is None:
            if not plan.joins:
                # Q1 shape: one map-only job pushing the full selection down.
                jobs.append(
                    self.engine.run_job(
                        MapReduceJob.per_record(
                            f"{query_id}-select",
                            self._table_splits(plan.base),
                            map_fn=lambda row: [(None, row)],
                        )
                    )
                )
        elif plan.joins or aggregate.partials is None:
            # The aggregation job reads the last join's HDFS output; without
            # joins, non-decomposable aggregates shuffle raw rows (rare path).
            splits = (
                self._hdfs_splits(_stage_path(query_id, len(plan.joins) - 1))
                if plan.joins
                else self._table_splits(plan.base)
            )
            jobs.append(
                self._run_aggregate_job(
                    aggregate, splits, plan.columns_after_joins, query_id
                )
            )
        else:
            jobs.append(self._run_partial_aggregate_job(plan, query_id))
        return jobs

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def _table_splits(
        self, local_plan: TableLocalPlan, tag: Optional[str] = None
    ) -> List[InputSplit]:
        def read(host, index):
            local = self.local_execute(host, local_plan.sql)
            batch = local.batch
            widths = None if tag is None else batch.widths
            return SplitData(batch.rows, local.seconds, widths, tag)

        return self._splits(local_plan.table, read)

    def _hdfs_splits(self, path: str, tag: Optional[str] = None) -> List[InputSplit]:
        """Each worker reads its share of the previous stage's HDFS output,
        and the share's row widths kept beside it."""
        worker_count = len(self.workers)

        def read(host, index):
            hdfs = self.engine.hdfs
            records, seconds = hdfs.read(path, host)
            share = slice(index, None, worker_count)
            widths = None if tag is None else hdfs.file(path).widths[share]
            return SplitData(records[share], seconds / worker_count, widths, tag)

        return self._splits(path, read)

    def _splits(self, label: str, read) -> List[InputSplit]:
        """One split per worker; ``read(host, index) -> SplitData``."""
        return [
            InputSplit(host, lambda host=host, index=index: read(host, index), label)
            for index, host in enumerate(self.workers)
        ]

    # ------------------------------------------------------------------
    # Join chain (Q3/Q4/Q5 shapes)
    # ------------------------------------------------------------------
    def _run_join_chain(self, plan: DistributedPlan, query_id: str) -> List[JobResult]:
        """One shuffle-join job per stage, each persisted to HDFS."""
        columns = list(plan.base.columns)
        jobs: List[JobResult] = []
        for stage_index, stage in enumerate(plan.joins):
            lp, rp, out_columns, residual = lower_join_stage(stage, columns)
            if stage_index == 0:
                left_splits = self._table_splits(plan.base, tag="L")
            else:
                left_splits = self._hdfs_splits(
                    _stage_path(query_id, stage_index - 1), tag="L"
                )
            right_splits = self._table_splits(stage.right, tag="R")
            # Every stage persists to HDFS ("The join results are then
            # written to HDFS", §6.1.9); the next join or the aggregation
            # job reads it back.
            result = self.engine.run_job(
                MapReduceJob(
                    name=f"{query_id}-join-{stage_index}",
                    splits=left_splits + right_splits,
                    map_fn=_join_map(lp, rp),
                    reduce_fn=_join_reduce(
                        residual, len(columns), len(stage.right.columns)
                    ),
                    num_reducers=len(self.workers),
                    output_path=_stage_path(query_id, stage_index),
                )
            )
            jobs.append(result)
            columns = out_columns
        return jobs

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
            MapReduceJob.per_record(
                f"{query_id}-aggregate",
                splits,
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
            MapReduceJob.per_record(
                f"{query_id}-partial-aggregate",
                self._table_splits(partial_aggregate_plan(plan)),
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


def _stage_path(query_id: str, stage_index: int) -> str:
    return f"/{query_id}/stage-{stage_index}"


def _join_map(left_key: int, right_key: int):
    """A join stage's map over one split: key every row by its side's join
    column, drop NULL keys, and price each ``(tag, row)`` from the row's
    known width."""

    def map_split(data: SplitData) -> MapOutput:
        tag, rows = data.tag, data.records
        keys = list(map(itemgetter(left_key if tag == "L" else right_key), rows))
        values = [(tag, row) for row in rows]
        sizes = [width + TAGGED_ROW_BYTES for width in data.widths]
        if None in keys:
            kept = [key is not None for key in keys]
            keys, values, sizes = (
                list(compress(vector, kept)) for vector in (keys, values, sizes)
            )
        return MapOutput(keys, values, sizes)

    return map_split


def _join_reduce(residual, left_width: int, right_width: int):
    """A join stage's reducer over its whole input.

    Key groups in merge-sort order, each group's lefts x rights in arrival
    order, then the residual over all of them in that same order — so the
    rows, and the first error, are those of joining group by group.  A
    joined row's width is its halves' plus :func:`concat_text_offset`.
    """
    # sizes are widths + TAGGED_ROW_BYTES, one such on each side
    offset = concat_text_offset(left_width, right_width) - 2 * TAGGED_ROW_BYTES

    def reduce_input(keys, tagged, sizes):
        lefts_of: Dict[object, List[int]] = {}
        rights_of: Dict[object, List[int]] = {}
        for position, key, (tag, _) in zip(count(), keys, tagged):
            groups = lefts_of if tag == "L" else rights_of
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [position]
            else:
                bucket.append(position)
        pair_lefts: List[int] = []
        pair_rights: List[int] = []
        for key in key_order(keys):
            lefts, rights = lefts_of.get(key), rights_of.get(key)
            if lefts and rights:
                pair_rights.extend(rights * len(lefts))
                pair_lefts.extend(
                    lefts if len(rights) == 1 else [p for p in lefts for _ in rights]
                )
        row_of = list(map(itemgetter(1), tagged)).__getitem__
        rows = list(map(add, map(row_of, pair_lefts), map(row_of, pair_rights)))
        if residual is not None:
            kept = list(map(residual, rows))
            rows, pair_lefts, pair_rights = (
                list(compress(vector, kept))
                for vector in (rows, pair_lefts, pair_rights)
            )
        widths = [
            sizes[left] + sizes[right] + offset
            for left, right in zip(pair_lefts, pair_rights)
        ]
        return rows, widths

    return reduce_input


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
