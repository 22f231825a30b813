"""MapReduce job specifications and results.

A job maps whole splits and reduces whole reducer inputs.  A split's map
returns its key vector, its values and each value's wire size; a reducer
receives everything routed to it, in arrival order, and groups it with
:func:`key_groups`.  Jobs written one record at a time (Hadoop's
``map(record)`` / ``reduce(key, values)``) are built with
:meth:`MapReduceJob.per_record`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MapReduceError
from repro.sqlengine.batch import value_sizes, wire_size


@dataclass
class SplitData:
    """What an input split yields when fetched.

    ``local_seconds`` is the simulated time the split's host spent producing
    the records — for HadoopDB this is the local database query cost, which
    the SMS planner pushes into the map task.  ``widths`` holds each
    record's ``len(str(record))`` when its producer already knows it, and
    ``tag`` names the input a split belongs to in a job that reads several
    (a reduce-side join tags its two sides).
    """

    records: List[object]
    local_seconds: float = 0.0
    widths: Optional[List[int]] = None
    tag: Optional[str] = None


@dataclass
class MapOutput:
    """One map task's output: parallel key and value vectors, and each
    value's wire size (a map-only job ships nothing and may omit them)."""

    keys: List[object]
    values: List[object]
    sizes: Optional[List[int]] = None


# A map function turns one whole split into its map output.
MapFn = Callable[[SplitData], MapOutput]
# A reduce function turns one reducer's input — keys, values and sizes in
# arrival order — into (output records, each record's text width or None).
ReduceFn = Callable[
    [List[object], List[object], List[int]],
    Tuple[List[object], Optional[List[int]]],
]


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
        """A job from per-record functions: ``map_fn(record)`` returns
        ``(key, value)`` pairs, ``reduce_fn(key, values)`` a key group's
        output records.  Values are priced by :func:`record_sizes`."""

        def map_split(data: SplitData) -> MapOutput:
            keys: List[object] = []
            values: List[object] = []
            for record in data.records:
                for key, value in map_fn(record):
                    keys.append(key)
                    values.append(value)
            sizes = None if reduce_fn is None else record_sizes(values)
            return MapOutput(keys, values, sizes)

        def reduce_groups(keys, values, sizes):
            records: List[object] = []
            for key, positions in key_groups(keys):
                records.extend(reduce_fn(key, [values[p] for p in positions]))
            return records, None

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
    test output deterministic.
    """
    return sorted(dict.fromkeys(keys), key=_sortable)


def key_groups(keys: Sequence[object]) -> List[Tuple[object, List[int]]]:
    """``(key, positions)`` per distinct key, in :func:`key_order`;
    positions keep arrival order."""
    groups: Dict[object, List[int]] = {}
    for position, key in enumerate(keys):
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [position]
        else:
            bucket.append(position)
    return [(key, groups[key]) for key in key_order(groups)]


def record_sizes(records: Sequence[object]) -> List[int]:
    """Each record's wire size, so ``sum(record_sizes(rs))`` is
    ``records_byte_size(rs)``: a tuple costs its values, anything else is
    one value.  Rows of one width are priced column by column."""
    if all(isinstance(record, tuple) for record in records) and (
        len(set(map(len, records))) == 1
    ):
        columns = list(zip(*records))
        if columns:
            return list(map(sum, zip(*map(value_sizes, columns))))
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


@dataclass
class JobResult:
    """Output records plus the simulated cost of producing them."""

    job_name: str
    records: List[object]
    timings: PhaseTimings
    bytes_shuffled: int = 0
    map_tasks: int = 0
    reduce_tasks: int = 0

    @property
    def duration_s(self) -> float:
        return self.timings.total_s
