"""The HadoopDB cluster facade.

Wires together the simulated network, HDFS, the MapReduce engine, one local
database per worker, the SMS planner and the plan driver into a system with
a one-call interface: :meth:`HadoopDbCluster.execute`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.mapreduce.engine import MapReduceConfig, MapReduceEngine
from repro.mapreduce.hdfs import Hdfs
from repro.plan.driver import DistributedPlanDriver, LocalResult
from repro.plan.sms import SmsPlanner
from repro.sim.compute import DEFAULT_COMPUTE_MODEL, ComputeModel
from repro.sim.network import SimNetwork
from repro.sqlengine.database import Database
from repro.sqlengine.schema import TableSchema


@dataclass
class HadoopDbResult:
    """Query output plus the simulated end-to-end latency."""

    columns: List[str]
    records: List[tuple]
    duration_s: float
    num_jobs: int

    def __len__(self) -> int:
        return len(self.records)


class HadoopDbCluster:
    """N worker nodes, each hosting a task tracker and a local database.

    Per the paper's setup (§6.1.1/§6.1.3): worker nodes double as datanodes,
    a dedicated node acts as job tracker + HDFS namenode, and tables are
    *not* co-partitioned across workers.
    """

    def __init__(
        self,
        num_workers: int,
        network: Optional[SimNetwork] = None,
        mr_config: Optional[MapReduceConfig] = None,
        compute_model: Optional[ComputeModel] = None,
        # Worker compute capacity; m1.small = 1.0 as in the benchmark.
        compute_units: float = 1.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker: {num_workers}")
        self.network = network or SimNetwork()
        self.workers = [f"hdb-worker-{i}" for i in range(num_workers)]
        self.jobtracker = "hdb-jobtracker"
        for host in self.workers + [self.jobtracker]:
            self.network.add_host(host)
        self.hdfs = Hdfs(self.network)
        for host in self.workers:
            self.hdfs.register_datanode(host)
        self.engine = MapReduceEngine(
            self.workers, self.network, self.hdfs, mr_config
        )
        self.compute_model = compute_model or DEFAULT_COMPUTE_MODEL
        self.compute_units = compute_units
        self.databases: Dict[str, Database] = {
            host: Database(host) for host in self.workers
        }
        self._schemas: Dict[str, TableSchema] = {}
        self._planner = SmsPlanner(self._schemas)
        self._driver = DistributedPlanDriver(
            self.engine, self.workers, self._local_execute
        )
        self._query_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Loading (SQL COPY + index build per worker, §6.1.5)
    # ------------------------------------------------------------------
    def create_tables(
        self,
        schemas: Sequence[TableSchema],
        secondary_indices: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        for schema in schemas:
            self._schemas[schema.name] = schema
            for database in self.databases.values():
                database.create_table(schema)
                for column in (secondary_indices or {}).get(schema.name, []):
                    database.table(schema.name).create_index(
                        f"idx_{schema.name}_{column}", column
                    )
        # A planner copies its schemas: a new one sees the new tables.
        self._planner = SmsPlanner(self._schemas)

    def load_worker(self, worker_index: int, data: Dict[str, List[tuple]]) -> None:
        """Bulk-load one worker's partition of each table."""
        database = self.databases[self.workers[worker_index]]
        for table, rows in data.items():
            database.table(table).insert_many(rows)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> HadoopDbResult:
        """Compile with the SMS planner and run the MapReduce job chain."""
        _, plan = self._planner.compile_text(sql)
        result = self._driver.run(plan, f"q{next(self._query_counter)}")
        return HadoopDbResult(
            columns=result.columns,
            records=result.records,
            duration_s=result.duration_s,
            num_jobs=len(result.jobs),
        )

    def _local_execute(self, host: str, sql: str) -> LocalResult:
        query_result = self.databases[host].execute(sql)
        return LocalResult(
            query_result.batch,
            self.compute_model.seconds(query_result.stats, self.compute_units),
        )
