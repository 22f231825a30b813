"""The MapReduce engine: job tracker, task scheduling, shuffle, reduce.

The engine actually executes the user's map and reduce functions (results
are real); the *time* each phase takes is simulated from the cost model
below.  The two constants that decide the paper's benchmark outcomes are
``job_startup_s`` (Hadoop's task-launch overhead, §6.1.6) and
``shuffle_notification_delay_s`` (the pull-based map-completion polling
delay, §6.1.7).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MapReduceError
from repro.mapreduce.hdfs import Hdfs
from repro.mapreduce.job import (
    JobRecord,
    JobResult,
    Lane,
    MapReduceJob,
    PhaseTimings,
    Run,
    SplitData,
)
from repro.sim.clock import parallel_duration
from repro.sim.network import SimNetwork
from repro.sqlengine.batch import ColumnBatch, wire_size
from repro.sqlengine.types import canonical_key

#: How many distinct keys one reducer count's partition memo holds before it
#: is cleared: a bound on the process's memory, not a tuning knob.
PARTITION_MEMO_CAP = 1 << 16

# num_reducers -> {key: its reducer}: the partition memo, shared by every
# engine in the process (the BestPeer++ facade builds an engine per query,
# and a query's join stages, its aggregate job and the next query shuffle
# the same keys).  Equal keys share an entry, which is exact because
# ``_partition_of`` sends equal keys to one reducer.  The memo stands for
# that one partitioner, so an engine must not route by another.
_REDUCER_OF: Dict[int, Dict[object, int]] = {}


@dataclass(frozen=True)
class MapReduceConfig:
    """Engine cost parameters.

    Defaults reflect the paper's observations: ~12 s job startup (within the
    10-15 s range of §6.1.6), a per-task scheduling cost on the job tracker,
    a ~1 s pull-based shuffle notification delay (§6.1.7), and a JVM-level
    per-record processing cost.
    """

    job_startup_s: float = 12.0
    per_task_schedule_s: float = 0.05
    shuffle_notification_delay_s: float = 1.0
    map_cpu_per_record_s: float = 4e-6
    reduce_cpu_per_record_s: float = 4e-6
    # One map slot and one reduce slot per worker, as configured in §6.1.3.
    map_slots_per_host: int = 1

    def __post_init__(self) -> None:
        if self.job_startup_s < 0 or self.per_task_schedule_s < 0:
            raise MapReduceError("startup costs must be non-negative")
        if self.map_slots_per_host < 1:
            raise MapReduceError("need at least one map slot per host")


def records_byte_size(records: Sequence[object]) -> int:
    """Approximate wire size of a record batch (tuples or scalars).

    The rows-shaped door onto :func:`~repro.sqlengine.batch.wire_size`:
    scalars are one vector, rows of one width one vector per column, and a
    ragged or mixed batch the one vector of all its values.
    """
    kinds = set(map(type, records))
    row_kinds = {kind for kind in kinds if issubclass(kind, tuple)}
    if not row_kinds:
        return wire_size(records)
    if row_kinds == kinds and len(set(map(len, records))) == 1:
        return sum(map(wire_size, zip(*records)))
    return wire_size(list(chain.from_iterable(
        record if isinstance(record, tuple) else (record,) for record in records
    )))


class MapReduceEngine:
    """Runs jobs over a set of worker hosts on the simulated network."""

    def __init__(
        self,
        hosts: Sequence[str],
        network: SimNetwork,
        hdfs: Optional[Hdfs] = None,
        config: Optional[MapReduceConfig] = None,
    ) -> None:
        if not hosts:
            raise MapReduceError("a MapReduce cluster needs at least one host")
        self.hosts = list(hosts)
        self.network = network
        self.hdfs = hdfs
        self.config = config or MapReduceConfig()

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def run_job(
        self,
        job: MapReduceJob,
        inputs: Optional[List[SplitData]] = None,
        replay: Optional[JobRecord] = None,
    ) -> JobResult:
        """Execute one job; returns real output with simulated timings.

        ``inputs`` are its splits' data, fetched in split order by the
        caller (``None``: fetched here); a job fetches every split before
        it maps any.  ``replay`` is the :attr:`JobResult.record` of a run
        over the same inputs: the map, route and reduce functions are
        skipped, and only what the simulated clock, the network and HDFS
        see is issued again in the recorded order — each lane's transfer
        with its recorded bytes, the output file's write — so the result
        and its timings are that run's (DESIGN.md §5 decision 21).
        """
        timings = PhaseTimings()
        timings.startup_s = (
            self.config.job_startup_s
            + self.config.per_task_schedule_s
            * (len(job.splits) + (job.num_reducers if job.reduce_fn else 0))
        )
        if inputs is None:
            inputs = [split.fetch() for split in job.splits]
        timings.map_s = self._map_seconds(job, inputs)

        if replay is None:
            record = self._execute(job, inputs, timings)
        else:
            record = replay
            if job.reduce_fn is not None:
                timings.shuffle_s = self._ship(job, record.lanes)
        if job.reduce_fn is not None:
            timings.reduce_s = parallel_duration(
                *(
                    rows * self.config.reduce_cpu_per_record_s
                    for rows in record.reducer_rows
                )
            )

        if job.output_path is not None:
            if self.hdfs is None:
                raise MapReduceError(
                    f"job {job.name!r} writes to HDFS but none is mounted"
                )
            timings.hdfs_write_s = self.hdfs.write(
                job.output_path, record.batch, record.size_bytes,
                self._reducer_host(0),
            )

        return JobResult(
            job_name=job.name,
            batch=record.batch,
            timings=timings,
            bytes_shuffled=sum(nbytes for _, _, nbytes in record.lanes),
            map_tasks=len(job.splits),
            reduce_tasks=job.num_reducers if job.reduce_fn else 0,
            record=record,
        )

    def _execute(
        self, job: MapReduceJob, inputs: List[SplitData], timings: PhaseTimings
    ) -> JobRecord:
        """Map every split, route and ship the map outputs, reduce; sets the
        shuffle phase's duration and returns what a replay needs."""
        map_outputs = [
            (split.host, job.map_fn(data)) for split, data in zip(job.splits, inputs)
        ]
        if job.reduce_fn is None:
            batch = ColumnBatch.concat([output.batch for _, output in map_outputs])
            lanes, reducer_rows = [], []
        else:
            reducer_inputs, lanes = self._shuffle(job, map_outputs)
            timings.shuffle_s = self._ship(job, lanes)
            batch, reducer_rows = self._run_reduce_phase(job, reducer_inputs)
        size_bytes = None
        if job.output_path is not None:
            # A file whose rows' typed sizes the reducers knew is priced by
            # their sum, the same integer records_byte_size would give.
            sizes = batch.known_sizes
            size_bytes = (
                records_byte_size(batch.rows) if sizes is None else sum(sizes)
            )
        return JobRecord(batch, tuple(lanes), tuple(reducer_rows), size_bytes)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _map_seconds(self, job: MapReduceJob, inputs: List[SplitData]) -> float:
        """The map phase's duration: tasks on different hosts run in
        parallel; multiple splits landing on the same host queue behind its
        map slots."""
        per_host_seconds: Dict[str, float] = {}
        for split, data in zip(job.splits, inputs):
            task_seconds = (
                data.local_seconds
                + len(data.batch) * self.config.map_cpu_per_record_s
            )
            per_host_seconds[split.host] = (
                per_host_seconds.get(split.host, 0.0) + task_seconds
            )
        slots = self.config.map_slots_per_host
        return parallel_duration(
            *(seconds / slots for seconds in per_host_seconds.values())
        )

    def _shuffle(self, job: MapReduceJob, map_outputs) -> Tuple[list, List[Lane]]:
        """Route every map output to its reducer.

        Returns each reducer's input — ``(keys, sizes, runs)`` in arrival
        order: split by split, position by position, one ``(side, batch,
        positions)`` run per map output routed there — and the lanes to
        ship, :meth:`_ship`'s input.  One lane per non-empty (mapper host,
        reducer), in sorted order, priced as the sum of its routed chunks'
        ``wire_size(keys) + sum(sizes)`` (``wire_size`` is a per-value sum,
        so that is the lane's keys and sizes priced whole).
        """
        num_reducers = job.num_reducers
        inputs: List[Tuple[list, list, List[Run]]] = [
            ([], [], []) for _ in range(num_reducers)
        ]
        memo = _REDUCER_OF.setdefault(num_reducers, {})
        lane_bytes: Dict[Tuple[str, int], int] = {}
        for host, output in map_outputs:
            keys, sizes = output.keys, output.sizes
            if len(memo) > PARTITION_MEMO_CAP:
                memo.clear()
            targets = list(map(memo.get, keys))
            if None in targets:
                missing = (key for key, target in zip(keys, targets) if target is None)
                for key in dict.fromkeys(missing):
                    memo[key] = self._partition_of(key, num_reducers)
                targets = list(map(memo.get, keys))
            routes: List[List[int]] = [[] for _ in range(num_reducers)]
            appends = [positions.append for positions in routes]
            for position, target in enumerate(targets):
                appends[target](position)
            for reducer, positions in enumerate(routes):
                if not positions:
                    continue
                routed_keys = list(map(keys.__getitem__, positions))
                routed_sizes = list(map(sizes.__getitem__, positions))
                reducer_keys, reducer_sizes, runs = inputs[reducer]
                reducer_keys.extend(routed_keys)
                reducer_sizes.extend(routed_sizes)
                runs.append((output.side, output.batch, positions))
                lane = (host, reducer)
                lane_bytes[lane] = (
                    lane_bytes.get(lane, 0)
                    + wire_size(routed_keys)
                    + sum(routed_sizes)
                )
        return inputs, [
            (host, reducer, nbytes)
            for (host, reducer), nbytes in sorted(lane_bytes.items())
        ]

    def _ship(self, job: MapReduceJob, lanes: Sequence[Lane]) -> float:
        """One wire transfer per lane, in order; returns the shuffle phase's
        duration."""
        per_reducer_seconds = [0.0] * job.num_reducers
        for host, reducer, nbytes in lanes:
            per_reducer_seconds[reducer] += self.network.transfer(
                host, self._reducer_host(reducer), nbytes
            )
        return (
            self.config.shuffle_notification_delay_s
            + parallel_duration(*per_reducer_seconds)
        )

    def _run_reduce_phase(self, job: MapReduceJob, inputs):
        """Each reducer reduces its whole input, an empty one too (it
        returns an empty batch of its output's shape); returns (the
        reducers' batches in reducer order, as one, each reducer's rows in
        plus rows out)."""
        batches: List[ColumnBatch] = []
        reducer_rows: List[int] = []
        for keys, sizes, runs in inputs:
            batch = job.reduce_fn(keys, sizes, runs)
            reducer_rows.append(len(keys) + len(batch))
            batches.append(batch)
        return ColumnBatch.concat(batches), reducer_rows

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _reducer_host(self, reducer_index: int) -> str:
        return self.hosts[reducer_index % len(self.hosts)]

    @staticmethod
    def _partition_of(key: object, num_reducers: int) -> int:
        # A deterministic, process-stable partitioner (Python's built-in
        # ``hash`` is salted for strings, so CRC32 over repr is used instead;
        # over the canonical key, so that 1 and 1.0 meet at one reducer).
        return zlib.crc32(repr(canonical_key(key)).encode("utf-8")) % num_reducers

