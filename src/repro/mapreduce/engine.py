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
from repro.mapreduce.job import JobResult, MapOutput, MapReduceJob, PhaseTimings
from repro.sim.clock import parallel_duration
from repro.sim.network import SimNetwork
from repro.sqlengine.batch import wire_size
from repro.sqlengine.types import canonical_key


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
    def run_job(self, job: MapReduceJob) -> JobResult:
        """Execute one job; returns real output with simulated timings."""
        timings = PhaseTimings()
        timings.startup_s = (
            self.config.job_startup_s
            + self.config.per_task_schedule_s
            * (len(job.splits) + (job.num_reducers if job.reduce_fn else 0))
        )

        map_outputs, timings.map_s = self._run_map_phase(job)

        widths: Optional[List[int]] = None
        if job.reduce_fn is None:
            records = list(
                chain.from_iterable(output.values for _, output in map_outputs)
            )
            bytes_shuffled = 0
            reduce_tasks = 0
        else:
            inputs, bytes_shuffled, timings.shuffle_s = self._shuffle(
                job, map_outputs
            )
            records, widths, timings.reduce_s = self._run_reduce_phase(
                job, inputs
            )
            reduce_tasks = job.num_reducers

        if job.output_path is not None:
            if self.hdfs is None:
                raise MapReduceError(
                    f"job {job.name!r} writes to HDFS but none is mounted"
                )
            writer = self._reducer_host(0)
            timings.hdfs_write_s = self.hdfs.write(
                job.output_path, records, records_byte_size(records), writer, widths
            )

        return JobResult(
            job_name=job.name,
            records=records,
            timings=timings,
            bytes_shuffled=bytes_shuffled,
            map_tasks=len(job.splits),
            reduce_tasks=reduce_tasks,
        )

    def run_chain(self, jobs: Sequence[MapReduceJob]) -> List[JobResult]:
        """Run jobs sequentially ("processed sequentially", Section 7)."""
        return [self.run_job(job) for job in jobs]

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _run_map_phase(self, job: MapReduceJob):
        """Run every map task; returns ([(host, MapOutput)], phase duration).

        Tasks on different hosts run in parallel; multiple splits landing on
        the same host queue behind its map slots.
        """
        per_host_seconds: Dict[str, float] = {}
        outputs: List[Tuple[str, MapOutput]] = []
        for split in job.splits:
            data = split.fetch()
            outputs.append((split.host, job.map_fn(data)))
            task_seconds = (
                data.local_seconds
                + len(data.records) * self.config.map_cpu_per_record_s
            )
            per_host_seconds[split.host] = (
                per_host_seconds.get(split.host, 0.0) + task_seconds
            )
        slots = self.config.map_slots_per_host
        duration = parallel_duration(
            *(seconds / slots for seconds in per_host_seconds.values())
        )
        return outputs, duration

    def _shuffle(self, job: MapReduceJob, map_outputs):
        """Route every map output to its reducer over the network.

        Returns each reducer's input — ``(keys, values, sizes)`` in arrival
        order: split by split, position by position — the bytes shipped
        and the phase duration.  One wire transfer per non-empty (mapper
        host, reducer) lane, priced ``wire_size(keys) + sum(sizes)``.
        """
        reducers = range(job.num_reducers)
        inputs = [([], [], []) for _ in reducers]
        # Keys repeat (both join sides, every row of a group): hash each
        # distinct key once.  Equal keys share an entry, which is exact
        # because ``_partition_of`` sends equal keys to one reducer.
        reducer_of: Dict[object, int] = {}
        lanes: Dict[str, List[Tuple[List[object], List[int]]]] = {}
        for host, output in map_outputs:
            keys, values, sizes = output.keys, output.values, output.sizes
            for key in dict.fromkeys(keys):
                if key not in reducer_of:
                    reducer_of[key] = self._partition_of(key, job.num_reducers)
            routes: List[List[int]] = [[] for _ in reducers]
            appends = [positions.append for positions in routes]
            for position, key in enumerate(keys):
                appends[reducer_of[key]](position)
            host_lanes = lanes.setdefault(host, [([], []) for _ in reducers])
            for reducer, positions in enumerate(routes):
                if not positions:
                    continue
                routed = [
                    list(map(vector.__getitem__, positions))
                    for vector in (keys, values, sizes)
                ]
                for into, part in zip(inputs[reducer], routed):
                    into.extend(part)
                lane_keys, lane_sizes = host_lanes[reducer]
                lane_keys.extend(routed[0])
                lane_sizes.extend(routed[2])

        total_bytes = 0
        per_reducer_seconds = [0.0] * job.num_reducers
        for host in sorted(lanes):
            for reducer, (keys, sizes) in enumerate(lanes[host]):
                if not keys:
                    continue  # nothing to send: no transfer, as on a real wire
                nbytes = wire_size(keys) + sum(sizes)
                total_bytes += nbytes
                per_reducer_seconds[reducer] += self.network.transfer(
                    host, self._reducer_host(reducer), nbytes
                )
        duration = (
            self.config.shuffle_notification_delay_s
            + parallel_duration(*per_reducer_seconds)
        )
        return inputs, total_bytes, duration

    def _run_reduce_phase(self, job: MapReduceJob, inputs):
        """Each reducer reduces its whole input; returns (records, their
        widths if every reducer knew them, phase duration)."""
        records: List[object] = []
        widths: Optional[List[int]] = []
        per_reducer_seconds: List[float] = []
        for keys, values, sizes in inputs:
            reducer_records: List[object] = []
            if keys:  # a reducer nothing reached does no work
                reducer_records, reducer_widths = job.reduce_fn(keys, values, sizes)
                if widths is not None and reducer_widths is not None:
                    widths.extend(reducer_widths)
                else:
                    widths = None
            per_reducer_seconds.append(
                (len(keys) + len(reducer_records))
                * self.config.reduce_cpu_per_record_s
            )
            records.extend(reducer_records)
        return records, widths, parallel_duration(*per_reducer_seconds)

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
