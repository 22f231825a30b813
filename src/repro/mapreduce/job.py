"""MapReduce job specifications and results.

A job's data is a :class:`~repro.sqlengine.batch.ColumnBatch` from split
read to reducer output.  A split's map returns its key vector, the batch its
values are the rows of, each value's wire size and, in a job that reads
several inputs, the one side all its values belong to.  A reducer receives
the keys and sizes routed to it, in arrival order, with each routed map
output as a ``(side, batch, positions)`` run, groups them with
:func:`key_groups` and returns its output batch — whose rows' text widths
and typed sizes it may hand in, so the stage file they are written to is
priced by a sum, not measured again.  Jobs written one record at a time
(Hadoop's ``map(record)`` / ``reduce(key, values)``) are built with
:meth:`MapReduceJob.per_record`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MapReduceError
from repro.sqlengine.batch import ColumnBatch, positions_by_key, row_sizes, wire_size


@dataclass
class SplitData:
    """What an input split yields when fetched: its batch.

    ``local_seconds`` is the simulated time the split's host spent producing
    the batch — for HadoopDB this is the local database query cost, which
    the SMS planner pushes into the map task.  ``tag`` names the input a
    split belongs to in a job that reads several (a reduce-side join tags
    its two sides).  All are read-only.
    """

    batch: ColumnBatch
    local_seconds: float = 0.0
    tag: Optional[str] = None


@dataclass
class MapOutput:
    """One map task's output: a key per row of ``batch`` (its values), and
    each value's wire size (a map-only job ships nothing and may omit them).

    ``side`` names the input every value came from (a reduce-side join's
    ``"L"`` or ``"R"``): it travels once per map output, as the reducer's
    runs, never once per value."""

    keys: List[object]
    batch: ColumnBatch
    sizes: Optional[List[int]] = None
    side: Optional[str] = None


# A map function turns one whole split into its map output.
MapFn = Callable[[SplitData], MapOutput]
# One reducer's input, map output by map output: its values are the rows of
# ``batch`` at ``positions``.
Run = Tuple[Optional[str], ColumnBatch, List[int]]
# A shuffle lane: (mapper host, reducer, bytes shipped).
Lane = Tuple[str, int, int]
# A reduce function turns one reducer's input — keys and sizes in arrival
# order, and the runs holding their values — into its output batch.
ReduceFn = Callable[[List[object], List[int], List[Run]], ColumnBatch]


@dataclass
class InputSplit:
    """One map task's input: a host and a fetch callback run on that host."""

    host: str
    fetch: Callable[[], SplitData]
    label: str = ""


@dataclass
class MapReduceJob:
    """A single MapReduce job.

    ``reduce_fn=None`` makes the job map-only (the paper's Q1 compiles to a
    map-only job).  ``output_path`` persists the output to HDFS, which chained
    jobs read back (HadoopDB's multi-join queries are chains of jobs).
    """

    name: str
    splits: List[InputSplit]
    map_fn: MapFn
    reduce_fn: Optional[ReduceFn] = None
    num_reducers: int = 1
    output_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.splits:
            raise MapReduceError(f"job {self.name!r} has no input splits")
        if self.num_reducers < 1:
            raise MapReduceError(
                f"job {self.name!r} needs at least one reducer"
            )

    @classmethod
    def per_record(
        cls,
        name: str,
        splits: List[InputSplit],
        map_fn: Callable[[object], Sequence[Tuple[object, object]]],
        reduce_fn: Optional[Callable[[object, List[object]], Sequence[object]]] = None,
        num_reducers: int = 1,
        output_path: Optional[str] = None,
    ) -> "MapReduceJob":
        """A job from per-record functions: ``map_fn(record)`` is called on
        each row of a split's batch and returns ``(key, value)`` pairs,
        ``reduce_fn(key, values)`` a key group's output records.  Values
        and records travel as batches of rows; values are priced by
        :func:`record_sizes`."""

        def map_split(data: SplitData) -> MapOutput:
            keys: List[object] = []
            values: List[object] = []
            for record in data.batch.rows:
                for key, value in map_fn(record):
                    keys.append(key)
                    values.append(value)
            sizes = None if reduce_fn is None else record_sizes(values)
            return MapOutput(keys, ColumnBatch.from_rows((), values), sizes)

        def reduce_groups(keys, sizes, runs):
            values = list(chain.from_iterable(
                map(batch.rows.__getitem__, positions) for _, batch, positions in runs
            ))
            records: List[object] = []
            for key, positions in key_groups(keys):
                records.extend(reduce_fn(key, [values[p] for p in positions]))
            return ColumnBatch.from_rows((), records)

        return cls(
            name,
            splits,
            map_split,
            None if reduce_fn is None else reduce_groups,
            num_reducers,
            output_path,
        )


def key_order(keys: Iterable[object]) -> List[object]:
    """The distinct keys in Hadoop's merge-sort order.

    Equal keys are one key (1 and 1.0 meet), named by its first-seen
    object.  Sorting by :func:`_sortable` makes merge-join reducers and
    test output deterministic.  Keys of one type sort by ``repr`` alone:
    the type-name half of :func:`_sortable` is constant then, so the order
    is the same.
    """
    distinct = list(dict.fromkeys(keys))
    if len(set(map(type, distinct))) == 1:
        return sorted(distinct, key=repr)
    return sorted(distinct, key=_sortable)


def key_groups(keys: Sequence[object]) -> List[Tuple[object, List[int]]]:
    """``(key, positions)`` per distinct key, in :func:`key_order`;
    positions keep arrival order."""
    groups, _ = positions_by_key(keys, 0)
    return [(key, groups[key]) for key in key_order(groups)]


def record_sizes(records: Sequence[object]) -> List[int]:
    """Each record's wire size, so ``sum(record_sizes(rs))`` is
    ``records_byte_size(rs)``: a tuple costs its values, anything else is
    one value.  Rows of one width are priced column by column."""
    if all(isinstance(record, tuple) for record in records) and (
        len(set(map(len, records))) == 1
    ):
        return row_sizes(list(zip(*records)), len(records))
    return [
        wire_size(record if isinstance(record, tuple) else (record,))
        for record in records
    ]


def _sortable(key: object):
    """Total order over heterogeneous keys for deterministic reducers."""
    return (type(key).__name__, repr(key))


@dataclass
class PhaseTimings:
    """Simulated duration breakdown of one job."""

    startup_s: float = 0.0
    map_s: float = 0.0
    shuffle_s: float = 0.0
    reduce_s: float = 0.0
    hdfs_write_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (
            self.startup_s
            + self.map_s
            + self.shuffle_s
            + self.reduce_s
            + self.hdfs_write_s
        )


@dataclass(frozen=True)
class JobRecord:
    """What one run of a job leaves for a run over the same inputs to give
    again without mapping, routing or reducing: the output batch and, for
    a file, the bytes it was priced at; each shuffle lane in the order it
    was shipped; each reducer's rows in plus rows out.  Read-only, like
    the batch it holds."""

    batch: ColumnBatch
    lanes: Tuple[Lane, ...] = ()
    reducer_rows: Tuple[int, ...] = ()
    size_bytes: Optional[int] = None


@dataclass
class JobResult:
    """The output batch plus the simulated cost of producing it."""

    job_name: str
    batch: ColumnBatch
    timings: PhaseTimings
    bytes_shuffled: int = 0
    map_tasks: int = 0
    reduce_tasks: int = 0
    #: What a run over the same inputs replays (``MapReduceEngine.run_job``).
    record: Optional[JobRecord] = field(default=None, compare=False, repr=False)

    @property
    def records(self) -> List[object]:
        """The output as records: the batch's rows."""
        return self.batch.rows

    @property
    def duration_s(self) -> float:
        return self.timings.total_s
