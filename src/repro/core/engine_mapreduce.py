"""BestPeer++'s MapReduce engine (§5.4).

"Besides its native processing strategy, we also implement a MapReduce-style
engine for BestPeer++ ... the mappers read data directly from the BestPeer++
instances and the output of reducers are written back to HDFS" — the job
shapes are the same as HadoopDB's (symmetric hash joins, one shuffle per
level), so the engine reuses the shared
:class:`~repro.plan.driver.DistributedPlanDriver`; only the input side
differs: splits run pushed-down SQL on the *normal peers'* local databases
through BestPeer++'s messaging substrate.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.accesscheck import require_unrestricted_read
from repro.core.execution import EngineContext, QueryExecution
from repro.errors import PeerUnavailableError
from repro.mapreduce.engine import MapReduceConfig, MapReduceEngine
from repro.mapreduce.hdfs import Hdfs
from repro.plan.driver import DistributedPlanDriver, LocalResult


class BestPeerMapReduceEngine:
    """Runs queries as MapReduce job chains over the normal peers."""

    def __init__(
        self,
        context: EngineContext,
        mr_config: Optional[MapReduceConfig] = None,
    ) -> None:
        self.context = context
        self.mr_config = mr_config or MapReduceConfig()
        self._query_counter = 0

    def execute(
        self,
        sql: str,
        user: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> QueryExecution:
        context = self.context
        _, plan = context.planner.compile_text(sql)

        # The engine runs over every peer holding any involved table.
        local_plans = plan.local_plans
        lookups = [context.indexer.locate(p.table) for p in local_plans]
        index_hops = sum(lookup.hops for lookup in lookups)
        involved: List[str] = list(
            dict.fromkeys(peer for lookup in lookups for peer in lookup.peers)
        )
        if not involved:
            return QueryExecution(
                columns=[], records=[], latency_s=0.0, strategy="mapreduce"
            )
        # Raise, never recover here (unlike ``context.require_online``): map
        # tasks read through ``execute_local``, outside the retry layer, and
        # MapReduce recovers by re-running the job — the facade blocks on
        # the fail-over and resubmits the whole query.
        for peer_id in involved:
            peer = context.peers.get(peer_id)
            if peer is None or not peer.online:
                raise PeerUnavailableError(peer_id)
        # Map tasks read raw fragments via execute_local, never through the
        # access-rewriting fetch path, so the whole job is gated up front:
        # every involved role must hold unrestricted reads (§4.4).
        require_unrestricted_read(context.peers, local_plans, involved, user)

        hosts = [context.peer(peer_id).host for peer_id in involved]
        host_to_peer = {context.peer(p).host: p for p in involved}

        # "a Hadoop distributed file system (HDFS) is mounted at system
        # start time" — mounted here over the involved instances.
        hdfs = Hdfs(context.network)
        for host in hosts:
            hdfs.register_datanode(host)
        engine = MapReduceEngine(hosts, context.network, hdfs, self.mr_config)

        def local_execute(host: str, fragment_sql: str) -> LocalResult:
            peer = context.peer(host_to_peer[host])
            # A map task reading its own host's database: the rows never
            # leave the instance here — HDFS reads and the shuffle price
            # every cross-host byte inside MapReduceEngine.
            execution = peer.execute_local(  # repro: allow[ISO002] map-side local read; shuffle prices the movement and MapReduce recovers by re-executing the job, not by retrying messages
                fragment_sql, query_timestamp=timestamp
            )
            return LocalResult(execution.result.batch, execution.seconds)

        driver = DistributedPlanDriver(engine, hosts, local_execute)
        self._query_counter += 1
        result = driver.run(plan, f"bpmr-q{self._query_counter}")

        bytes_shuffled = sum(job.bytes_shuffled for job in result.jobs)
        latency = context.hop_cost_s(index_hops) + result.duration_s
        return QueryExecution(
            columns=result.columns,
            records=result.records,
            latency_s=latency,
            strategy="mapreduce",
            bytes_transferred=bytes_shuffled,
            peers_contacted=len(involved),
            index_hops=index_hops,
            dollar_cost=context.config.pricing.basic_cost(
                bytes_shuffled, latency
            ),
        )
