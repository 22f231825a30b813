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
from itertools import chain, repeat
from operator import add, is_, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import MapReduceError
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import (
    InputSplit,
    JobRecord,
    JobResult,
    MapOutput,
    MapReduceJob,
    SplitData,
    key_groups,
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
from repro.sqlengine.batch import (
    ColumnBatch,
    LazyColumns,
    concat_text_offset,
    gather,
    positions_by_key,
    rows_from_vectors,
)
from repro.sqlengine.executor import projection, sort_order
from repro.sqlengine.expr import RowLayout
from repro.sqlengine.planner import order_resolvable
from repro.sqlengine.vexecutor import lower_aggregate, lower_filter, lower_values

#: A join shuffles a row of one side, priced as the record ``(tag, row)``:
#: the one-letter tag (1 + 4 bytes) plus the row as one value, its text
#: plus 4.
TAGGED_ROW_BYTES = 9


@dataclass
class LocalResult:
    """What running a pushed-down SQL fragment on one worker yields: its
    result batch, which a job's map reads and never writes, and the
    simulated seconds it took."""

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


@dataclass(frozen=True)
class ChainRecord:
    """A plan's last run over a driver, kept on the plan
    (``DistributedPlan.last_chain``) for a repeat to replay (DESIGN.md §5
    decision 21).

    ``key`` is the engine's class, the worker hosts, each job's reducer
    count and each stage's kept columns; ``batches`` every table split's
    batch in fetch order; ``jobs`` each job's :class:`JobRecord`; then the
    final columns and records.  It holds its batches, so no new batch can
    take one's identity."""

    key: tuple
    batches: Tuple[ColumnBatch, ...]
    jobs: Tuple[JobRecord, ...]
    columns: List[str]
    records: List[tuple]


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
        """Run the plan's jobs in order, each fetching all of its splits
        before it maps any.

        A repeat replays the plan's last run job by job while every table
        split hands back the batch object that run fetched (``is``, in
        fetch order) under the same key: each job still fetches, ships its
        lanes and writes its file (``MapReduceEngine.run_job``), and the
        final records are the kept ones.  From the first job that fetched
        another batch on, the jobs run for real and the run is kept anew.
        A failed run leaves nothing kept.
        """
        fetched: List[ColumnBatch] = []
        jobs, layouts = self._jobs(plan, query_id, fetched.append)
        key = (
            type(self.engine),
            tuple(self.workers),
            tuple(job.num_reducers for job in jobs),
            tuple(map(tuple, layouts)),
        )
        last = plan.last_chain
        if last is not None and last.key != key:
            last = None
        results: List[JobResult] = []
        try:
            for index, job in enumerate(jobs):
                seen = len(fetched)
                inputs = [split.fetch() for split in job.splits]
                # the same key fetches as many table batches, job by job
                if last is not None and not all(
                    map(is_, fetched[seen:], last.batches[seen:])
                ):
                    last = None
                results.append(
                    self.engine.run_job(
                        job, inputs, None if last is None else last.jobs[index]
                    )
                )
            if last is None:
                columns, records = self._finish(plan, results, layouts[-1])
                last = plan.last_chain = ChainRecord(
                    key,
                    tuple(fetched),
                    tuple(result.record for result in results),
                    columns,
                    records,
                )
        except BaseException:
            plan.last_chain = None
            raise
        finally:
            # The chain's stage files are the query's temporary files: gone
            # once read, or once the query failed (no simulated cost).
            hdfs = self.engine.hdfs
            for index in range(len(plan.joins)):
                path = _stage_path(query_id, index)
                if hdfs is not None and hdfs.exists(path):
                    hdfs.delete(path)
        return DriverResult(list(last.columns), list(last.records), results)

    @staticmethod
    def _finish(
        plan: DistributedPlan, results: List[JobResult], columns: List[str]
    ) -> Tuple[List[str], List[tuple]]:
        """The final columns and records from the last job's output."""
        aggregate = plan.aggregate
        records = results[-1].records
        if aggregate is not None:
            if not records:
                # No map output, so no reducer ran — but a scalar aggregate
                # over nothing is still one row.  The coordinator applies the
                # shared rule: no job, no bytes, no simulated time.
                records, _ = aggregate_rows(aggregate, records, columns)
            columns = aggregate.output_columns
        records, columns = finalize_records(plan, records, columns)
        return columns, records

    def _jobs(
        self, plan: DistributedPlan, query_id: str, fetched
    ) -> Tuple[List[MapReduceJob], List[List[str]]]:
        """The join chain's jobs, then the job that finishes the query; and
        the base's columns followed by those each join stage keeps, the
        last being what the job after the chain reads.  A table split
        hands each batch it fetches to ``fetched``."""
        aggregate = plan.aggregate
        jobs, layouts = self._join_jobs(plan, query_id, fetched)
        columns = layouts[-1]
        if aggregate is None:
            if not plan.joins:
                # Q1 shape: one map-only job pushing the full selection down.
                jobs.append(
                    MapReduceJob.per_record(
                        f"{query_id}-select",
                        self._table_splits(plan.base, fetched),
                        map_fn=lambda row: [(None, row)],
                    )
                )
        elif plan.joins or aggregate.partials is None:
            # The aggregation job reads the last join's HDFS output; without
            # joins, non-decomposable aggregates shuffle raw rows (rare path).
            splits = (
                self._hdfs_splits(_stage_path(query_id, len(plan.joins) - 1))
                if plan.joins
                else self._table_splits(plan.base, fetched)
            )
            jobs.append(self._aggregate_job(aggregate, splits, columns, query_id))
        else:
            jobs.append(self._partial_aggregate_job(plan, query_id, fetched))
        return jobs, layouts

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def _table_splits(
        self, local_plan: TableLocalPlan, fetched, tag: Optional[str] = None
    ) -> List[InputSplit]:
        def read(host, index):
            local = self.local_execute(host, local_plan.sql)
            fetched(local.batch)
            return SplitData(local.batch, local.seconds, tag)

        return self._splits(local_plan.table, read)

    def _hdfs_splits(self, path: str, tag: Optional[str] = None) -> List[InputSplit]:
        """Each worker reads its ``[index::workers]`` share of the previous
        stage's HDFS batch, the rows' widths and typed sizes sliced with it."""
        worker_count = len(self.workers)

        def read(host, index):
            batch, seconds = self.engine.hdfs.read(path, host)
            share = batch.take(range(index, len(batch), worker_count))
            return SplitData(share, seconds / worker_count, tag)

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
    def _join_jobs(
        self, plan: DistributedPlan, query_id: str, fetched
    ) -> Tuple[List[MapReduceJob], List[List[str]]]:
        """One shuffle-join job per stage, each persisted to HDFS; returns
        the jobs and the base's columns followed by each stage's output
        columns.

        A stage's output keeps only the columns a later step reads
        (:func:`live_stage_columns`); its rows' widths and typed sizes stay
        those of the whole joined row, so every shuffle lane and stage file
        is priced as if it held every column.
        """
        columns = list(plan.base.columns)
        layouts = [columns]
        width = len(columns)  # the whole left row's
        jobs: List[MapReduceJob] = []
        live = live_stage_columns(plan)
        for stage_index, stage in enumerate(plan.joins):
            map_fn, reduce_fn, columns = _join_stage(
                stage, columns, width, live[stage_index]
            )
            if stage_index == 0:
                left_splits = self._table_splits(plan.base, fetched, tag="L")
            else:
                left_splits = self._hdfs_splits(
                    _stage_path(query_id, stage_index - 1), tag="L"
                )
            right_splits = self._table_splits(stage.right, fetched, tag="R")
            # Every stage persists to HDFS ("The join results are then
            # written to HDFS", §6.1.9); the next join or the aggregation
            # job reads it back.
            jobs.append(
                MapReduceJob(
                    name=f"{query_id}-join-{stage_index}",
                    splits=left_splits + right_splits,
                    map_fn=map_fn,
                    reduce_fn=reduce_fn,
                    num_reducers=len(self.workers),
                    output_path=_stage_path(query_id, stage_index),
                )
            )
            layouts.append(columns)
            width += len(stage.right.columns)
        return jobs, layouts

    # ------------------------------------------------------------------
    # Aggregation jobs
    # ------------------------------------------------------------------
    def _aggregate_job(
        self, aggregate: AggregateStage, splits, columns, query_id: str
    ) -> MapReduceJob:
        """Shuffle rows by group key; each reducer aggregates its groups.

        One job for both callers: after a join chain the splits read the
        last stage's HDFS output, for a non-decomposable single-table
        aggregate they read the workers' tables.  A map keys a whole split
        batch at once; a key is the tuple of its group values (a shuffled
        key is priced by its text, so a one-value key stays a 1-tuple).  A
        reducer lays its input out group by group in merge-sort order and
        aggregates it in one call, so its records, and the first error, are
        those of reducing group by group.
        """
        layout = RowLayout(columns)
        every_column = range(len(columns))
        group_values = lower_values(aggregate.group_exprs, layout)
        grouped = lower_aggregate(aggregate.group_exprs, aggregate.aggregates, layout)
        names = aggregate.output_columns

        def map_split(data: SplitData) -> MapOutput:
            batch = data.batch
            vectors = group_values(batch.vectors, len(batch))
            keys = list(zip(*vectors)) if vectors else [()] * len(batch)
            return MapOutput(keys, batch, batch.sizes)

        def reduce_input(keys, sizes, runs):
            if not keys:  # no group reached this reducer
                return ColumnBatch(names, [[] for _ in names], 0)
            arranged = [
                position
                for _, positions in key_groups(keys)
                for position in positions
            ]
            cols = gather(_stacked(runs, every_column), arranged)
            out, groups = grouped(cols, len(arranged))
            return ColumnBatch(names, out, groups)

        return MapReduceJob(
            f"{query_id}-aggregate",
            splits,
            map_split,
            reduce_input,
            num_reducers=len(self.workers),
        )

    def _partial_aggregate_job(
        self, plan: DistributedPlan, query_id: str, fetched
    ) -> MapReduceJob:
        """The Q2 path: maps compute partial aggregates via local SQL; the
        reduce round merges them."""
        group_count = len(plan.aggregate.group_exprs)
        merge = partial_merger(plan.aggregate.partials)

        def partial_map(row):
            return [(tuple(row[:group_count]), tuple(row[group_count:]))]

        def partial_reduce(key, partial_rows):
            return [tuple(key) + merge(partial_rows)]

        return MapReduceJob.per_record(
            f"{query_id}-partial-aggregate",
            self._table_splits(partial_aggregate_plan(plan), fetched),
            map_fn=partial_map,
            reduce_fn=partial_reduce,
            # A scalar aggregate has a single group; more reducers would
            # sit idle.
            num_reducers=1 if group_count == 0 else len(self.workers),
        )


# ----------------------------------------------------------------------
# Steps with one definition each, run by every executor
# ----------------------------------------------------------------------
def lower_join_stage(stage: JoinStage, columns: List[str]):
    """Resolve one join stage against the accumulated stream's ``columns``.

    Returns ``(left key position, right key position, joined columns,
    residual)``.  The residual, lowered once per stage, is a
    :func:`~repro.sqlengine.vexecutor.lower_filter` over the joined rows
    (``None`` when the stage has none): every owner of the parallel engine
    runs it once over all of the rows it joined.  The driver's join jobs
    lower a stage over the columns they keep instead (:func:`_join_stage`).
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
    """A join stage's map over one split: key every row of its batch by its
    side's join column, drop NULL keys, price each row as its ``(tag,
    row)`` from the row's known width, and hand the batch and its side on
    to the reducer."""

    def map_split(data: SplitData) -> MapOutput:
        tag, batch = data.tag, data.batch
        key = left_key if tag == "L" else right_key
        keys = batch.vectors[key]
        if None in keys:
            batch = batch.take(
                [position for position, k in enumerate(keys) if k is not None]
            )
            keys = batch.vectors[key]
        sizes = list(map(TAGGED_ROW_BYTES.__add__, batch.widths))
        return MapOutput(keys, batch, sizes, tag)

    return map_split


def live_stage_columns(plan: DistributedPlan) -> List[Set[str]]:
    """Per join stage, the names of its output columns that a later step
    reads: a later stage's left key or residual, the aggregate's group and
    argument expressions or, with no aggregate, the select list, HAVING
    and ORDER BY.

    A name keeps every column it could resolve to
    (:meth:`~repro.sqlengine.expr.RowLayout.candidates`, so an ambiguous
    or unresolved name keeps every candidate) and a star every column it
    expands to, so each later step resolves its names on the kept columns
    as on all of them.  A stage's set may name columns its output lacks.
    """
    inputs = []
    columns = list(plan.base.columns)
    for stage in plan.joins:
        inputs.append(columns)
        columns = columns + stage.right.columns
    aggregate = plan.aggregate
    if aggregate is not None:
        live = _names_read(columns, aggregate.group_exprs + aggregate.aggregates)
    else:
        _, outputs = projection(plan.items, RowLayout(columns))
        live = {columns[output] for output in outputs if isinstance(output, int)}
        live |= _names_read(
            columns,
            [output for output in outputs if not isinstance(output, int)]
            + [plan.having]
            + [item.expr for item in plan.order_by],
        )
    per_stage = []
    for stage, left in zip(reversed(plan.joins), reversed(inputs)):
        per_stage.append(live)
        key = RowLayout(left).candidates(stage.left_key)
        live = (
            live
            | _names_read(left + stage.right.columns, [stage.residual])
            | {left[position] for position in key}
        )
    return per_stage[::-1]


def _names_read(columns: Sequence[str], exprs) -> Set[str]:
    """The names of ``columns`` that ``exprs`` (None: no expression) could
    read."""
    layout = RowLayout(columns)
    return {
        columns[position]
        for expr in exprs
        if expr is not None
        for name in expr.referenced_columns()
        for position in layout.candidates(name)
    }


def _join_stage(stage: JoinStage, columns: List[str], width: int, live: Set[str]):
    """One join stage's ``(map_fn, reduce_fn, output columns)``.

    ``columns`` lay out the left input, the kept columns of a ``width``
    columns wide row.  The reducer stacks the left and right columns that
    ``live`` or the residual names, runs the residual over them and keeps
    the ``live`` ones.  Every name resolves as on the whole row, because
    the left input kept each column a name could resolve to.
    """
    right_columns = stage.right.columns
    needed = live | _names_read(columns + right_columns, [stage.residual])
    left = [k for k, column in enumerate(columns) if column in needed]
    right = [k for k, column in enumerate(right_columns) if column in needed]
    stacked = [columns[k] for k in left] + [right_columns[k] for k in right]
    output = [k for k, column in enumerate(stacked) if column in live]
    residual = (
        None
        if stage.residual is None
        else lower_filter(stage.residual, RowLayout(stacked))
    )
    out_columns = [stacked[k] for k in output]
    return (
        _join_map(
            RowLayout(columns).resolve(stage.left_key),
            RowLayout(right_columns).resolve(stage.right_key),
        ),
        _join_reduce(
            residual, out_columns, left, right, output, (width, len(right_columns))
        ),
        out_columns,
    )


def _join_reduce(
    residual,
    columns: List[str],
    left_columns: Sequence[int],
    right_columns: Sequence[int],
    output: Sequence[int],
    widths: Tuple[int, int],
):
    """A join stage's reducer over its whole input.

    Key groups in merge-sort order, each group's lefts x rights in arrival
    order, then the residual over all of those pairs in that same order —
    so the rows, and the first error, are those of joining group by group.
    Each side is cut out of the input by its runs (in any order) and
    grouped on its own: a side of distinct keys is one dict, only a side
    with duplicate keys buckets its positions.  Only the ``left_columns``
    and ``right_columns`` of each side's batches are stacked (positions in
    them); the residual reads the pairs' halves in place, laid out as
    those stacked columns, left ones first, and only the ``output``
    positions of the pairs it keeps are gathered, into a batch laid out as
    ``columns``.  A joined row's width is its halves' plus
    :func:`concat_text_offset` of the whole rows' ``widths``, its typed
    size its halves' summed, both handed to the batch: they price the row
    with every column, whichever are stacked.
    """
    # sizes are widths + TAGGED_ROW_BYTES, one such on each side
    offset = concat_text_offset(*widths) - 2 * TAGGED_ROW_BYTES

    def reduce_input(keys, sizes, runs):
        left_keys, left_sizes, left = _side(runs, "L", keys, sizes, left_columns)
        right_keys, right_sizes, right = _side(runs, "R", keys, sizes, right_columns)
        # every key once, named by its first-seen object, as key_order does
        named = dict.fromkeys(keys)
        lefts_of, left_distinct = positions_by_key(left_keys, len(named))
        rights_of, right_distinct = positions_by_key(right_keys, len(named))
        # the keys both sides have, in key_order's order of all keys
        order = key_order(
            filter(rights_of.__contains__, filter(lefts_of.__contains__, named))
        )
        lefts = list(map(lefts_of.__getitem__, order))
        rights = list(map(rights_of.__getitem__, order))
        if left_distinct and right_distinct:
            pair_lefts, pair_rights = lefts, rights
        elif left_distinct:
            pair_rights = list(chain.from_iterable(rights))
            pair_lefts = list(_repeated(lefts, rights))
        elif right_distinct:
            pair_lefts = list(chain.from_iterable(lefts))
            pair_rights = list(_repeated(rights, lefts))
        else:
            pair_lefts, pair_rights = [], []
            for group_lefts, group_rights in zip(lefts, rights):
                pair_rights.extend(group_rights * len(group_lefts))
                pair_lefts.extend(
                    group_lefts
                    if len(group_rights) == 1
                    else [p for p in group_lefts for _ in group_rights]
                )

        halves = LazyColumns(
            [
                (len(left_columns), left, pair_lefts, False),
                (len(right_columns), right, pair_rights, False),
            ]
        )
        if residual is not None:
            kept = residual(halves, len(pair_lefts))
            halves = halves.take(kept)
            pair_lefts, pair_rights = (
                list(map(vector.__getitem__, kept))
                for vector in (pair_lefts, pair_rights)
            )

        def joined(left_vector, right_vector):
            return map(
                add,
                map(left_vector.__getitem__, pair_lefts),
                map(right_vector.__getitem__, pair_rights),
            )

        return ColumnBatch(
            columns,
            [halves[k] for k in output],
            len(pair_lefts),
            list(map(offset.__add__, joined(left_sizes, right_sizes))),
            list(joined(left[-1], right[-1])),
        )

    return reduce_input


def _repeated(positions: List[int], groups: List[List[int]]):
    """Each of ``positions`` once per member of its group."""
    return chain.from_iterable(map(repeat, positions, map(len, groups)))


def _side(runs, side: str, keys, sizes, columns: Sequence[int]):
    """The keys, shuffle sizes and stacked ``columns`` (:func:`_stacked`,
    typed) of the runs naming ``side``, in arrival order; a run of neither
    side is refused."""
    spans: List[List[int]] = []
    mine = []
    start = 0
    for run in runs:
        tag, _, positions = run
        if tag not in ("L", "R"):
            raise MapReduceError(
                f"a join input's side must be 'L' or 'R', not {tag!r}"
            )
        stop = start + len(positions)
        if tag == side:
            mine.append(run)
            if spans and spans[-1][1] == start:
                spans[-1][1] = stop
            else:
                spans.append([start, stop])
        start = stop
    if len(spans) == 1:
        (start, stop), = spans
        cut = [keys[start:stop], sizes[start:stop]]
    else:
        cut = [
            list(chain.from_iterable(vector[start:stop] for start, stop in spans))
            for vector in (keys, sizes)
        ]
    return cut[0], cut[1], _stacked(mine, columns, typed=True)


def _stacked(
    runs, columns: Sequence[int], typed: bool = False
) -> List[List[object]]:
    """The ``columns`` (positions) of the runs' batches at their positions,
    one run after another; with ``typed``, the rows' typed sizes as one
    more, last."""
    parts = [
        (batch.vectors + [batch.sizes] if typed else batch.vectors, _picker(positions))
        for _, batch, positions in runs
    ]
    return [
        list(chain.from_iterable(pick(vectors[k]) for vectors, pick in parts))
        for k in ([*columns, -1] if typed else columns)
    ]


def _picker(positions: List[int]):
    """``vector -> its values at positions`` (one or more), gathered in C."""
    if len(positions) > 1:
        return itemgetter(*positions)
    (position,) = positions
    return lambda vector: (vector[position],)


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
