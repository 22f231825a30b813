"""MapReduce job specifications and results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MapReduceError

# A map function turns one input record into zero or more (key, value) pairs.
MapFn = Callable[[object], Sequence[Tuple[object, object]]]
# A reduce function turns (key, all values for key) into output records.
ReduceFn = Callable[[object, List[object]], Sequence[object]]


@dataclass
class SplitData:
    """What an input split yields when fetched.

    ``local_seconds`` is the simulated time the split's host spent producing
    the records — for HadoopDB this is the local database query cost, which
    the SMS planner pushes into the map task.
    """

    records: List[object]
    local_seconds: float = 0.0


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
