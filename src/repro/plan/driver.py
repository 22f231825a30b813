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

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import (
    InputSplit,
    JobResult,
    MapOutput,
    MapReduceJob,
    SplitData,
    key_groups,
    key_order,
    record_sizes,
)
from repro.plan.sms import (
    AggregateStage,
    DistributedPlan,
    JoinStage,
    PartialAggregate,
    TableLocalPlan,
    partial_aggregate_plan,
)
from repro.sqlengine.batch import (
    ColumnBatch,
    LazyColumns,
    concat_text_offset,
    rows_from_vectors,
)
from repro.sqlengine.executor import projection, sort_order
from repro.sqlengine.expr import RowLayout
from repro.sqlengine.planner import order_resolvable
from repro.sqlengine.vexecutor import lower_aggregate, lower_filter, lower_values

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
        aggregate they read the workers' tables.  A map keys a whole split
        at once; a key is the tuple of its group values (a shuffled key is
        priced by its text, so a one-value key stays a 1-tuple).  A reducer
        lays its input out group by group in merge-sort order and
        aggregates it in one call, so its records, and the first error, are
        those of reducing group by group.
        """
        layout = RowLayout(columns)
        width = len(columns)
        group_values = lower_values(aggregate.group_exprs, layout)
        grouped = lower_aggregate(aggregate.group_exprs, aggregate.aggregates, layout)

        def map_split(data: SplitData) -> MapOutput:
            rows = data.records
            vectors = group_values(LazyColumns.over_rows(rows, width), len(rows))
            keys = list(zip(*vectors)) if vectors else [()] * len(rows)
            return MapOutput(keys, rows, record_sizes(rows))

        def reduce_input(keys, rows, sizes):
            arranged = [
                rows[position]
                for _, positions in key_groups(keys)
                for position in positions
            ]
            out, groups = grouped(LazyColumns.over_rows(arranged, width), len(arranged))
            return rows_from_vectors(out, groups), None

        return self.engine.run_job(
            MapReduceJob(
                f"{query_id}-aggregate",
                splits,
                map_split,
                reduce_input,
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
    residual)``.  The residual, lowered once per stage, is a
    :func:`~repro.sqlengine.vexecutor.lower_filter` over the joined rows
    (``None`` when the stage has none): every reducer or owner runs it once
    over all of the rows it joined.
    """
    out_columns = columns + stage.right.columns
    residual = (
        None
        if stage.residual is None
        else lower_filter(stage.residual, RowLayout(out_columns))
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
    width = left_width + right_width

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
            kept = residual(LazyColumns.over_rows(rows, width), len(rows))
            rows, pair_lefts, pair_rights = (
                list(map(vector.__getitem__, kept))
                for vector in (rows, pair_lefts, pair_rights)
            )
        widths = [
            sizes[left] + sizes[right] + offset
            for left, right in zip(pair_lefts, pair_rights)
        ]
        return rows, widths

    return reduce_input


def aggregate_rows(
    aggregate: AggregateStage, rows: List[tuple], columns: Sequence[str]
) -> Tuple[List[tuple], List[str]]:
    """Group ``rows`` (laid out as ``columns``), aggregate each group; returns
    ``(records, column names)`` for :func:`finalize_records`.

    The basic engine's raw-row arm, the parallel engine's root, and this
    driver when no map output reached a reducer — one
    :func:`~repro.sqlengine.vexecutor.lower_aggregate` call, so groups come
    out in first-seen order, a scalar aggregate over nothing is one row
    (COUNT = 0, NULL for the rest), and an error is the local database's.
    """
    grouped = lower_aggregate(
        aggregate.group_exprs, aggregate.aggregates, RowLayout(columns)
    )
    out, groups = grouped(LazyColumns.over_rows(rows, len(columns)), len(rows))
    return rows_from_vectors(out, groups), aggregate.output_columns


def merge_partial_rows(
    aggregate: AggregateStage, rows: Sequence[tuple]
) -> Tuple[List[tuple], List[str]]:
    """Merge the owners' partial-aggregate rows (group keys first) and
    finalize them: §6.1.7's "final aggregation" at the query peer."""
    count = len(aggregate.group_exprs)
    merge = partial_merger(aggregate.partials)
    groups: Dict[tuple, List[tuple]] = {}
    for row in rows:
        key = tuple(row[:count])
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = bucket = []
        bucket.append(tuple(row[count:]))
    if not groups and not count:
        # A scalar aggregate over nothing is still one row.
        width = sum(len(partial.partial_sqls) for partial in aggregate.partials)
        groups[()] = [(None,) * width]
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


def finalize_records(plan: DistributedPlan, records: List[tuple], columns):
    """Apply HAVING, ORDER BY, projection, DISTINCT and LIMIT serially.

    Shared by every distributed execution path (HadoopDB's driver and
    BestPeer++'s engines): these steps run on the coordinating node over the
    already-small final record stream, in the local plan's order.  As
    there, :func:`~repro.sqlengine.planner.order_resolvable` places the
    sort: above the projection when every key resolves on the projected
    row, else below it, reading the records.
    """
    layout = RowLayout(columns)
    if plan.having is not None:
        kept = lower_filter(plan.having, layout)(
            LazyColumns.over_rows(records, len(columns)), len(records)
        )
        records = list(map(records.__getitem__, kept))
    sort_above = order_resolvable(plan.items, plan.order_by)
    if plan.order_by and not sort_above:
        records = _sorted(plan.order_by, records, layout)

    names, outputs = projection(plan.items, layout)
    values = lower_values(outputs, layout)
    n = len(records)
    projected = rows_from_vectors(
        values(LazyColumns.over_rows(records, len(columns)), n), n
    )

    if plan.distinct:
        projected = list(dict.fromkeys(projected))
    if plan.order_by and sort_above:
        projected = _sorted(plan.order_by, projected, RowLayout(names))
    if plan.limit is not None:
        projected = projected[: plan.limit]
    return projected, names


def _sorted(order_by, rows: List[tuple], layout: RowLayout) -> List[tuple]:
    """``rows`` (laid out as ``layout``) in ORDER BY order."""
    keys = lower_values([item.expr for item in order_by], layout)
    n = len(rows)
    order = sort_order(keys(LazyColumns.over_rows(rows, len(layout)), n), order_by, n)
    return list(map(rows.__getitem__, order))


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
