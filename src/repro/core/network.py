"""The BestPeerNetwork facade: one object that is "the service".

Wires the simulated cloud, the BATON overlay, the bootstrap peer and the
normal peers into the system a user of the paper's platform would see:

* register the global schema, launch peers (each on its own dedicated
  instance inside a security group, §2.1),
* load each business's data (identity mapping by default; custom
  :class:`~repro.core.schema_mapping.SchemaMapping` supported),
* submit queries from any peer through any engine — ``basic``,
  ``parallel``, ``mapreduce`` or ``adaptive``,
* strong consistency under failures (§3.2): a query touching a crashed peer
  *blocks* until the bootstrap's fail-over completes, then transparently
  retries — it never returns partial data.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from repro.baton.loadbalance import LoadBalancer, RebalanceReport
from repro.baton.replication import ReplicatedOverlay
from repro.baton.tree import BatonOverlay
from repro.core.access_control import Role, full_access_role
from repro.core.adaptive import AdaptiveEngine, TableStatistics
from repro.core.bootstrap import (
    BootstrapCluster,
    BootstrapPeer,
    MaintenanceReport,
)
from repro.core.config import (
    BestPeerConfig,
    DaemonConfig,
    DEFAULT_ENGINE,
    DEFAULT_INSTANCE_TYPE,
    LeaseConfig,
    ServingConfig,
)
from repro.core.costmodel import CostParams
from repro.core.engine_basic import BasicEngine
from repro.core.engine_mapreduce import BestPeerMapReduceEngine
from repro.core.engine_parallel import ParallelP2PEngine
from repro.core.execution import EngineContext, QueryExecution
from repro.core.histogram import Histogram
from repro.core.indexer import (
    DataIndexer,
    FULL_INDEX_POLICY,
    PartialIndexPolicy,
)
from repro.core.loader import SnapshotDelta
from repro.core.metrics import MetricsRegistry
from repro.core.peer import NormalPeer
from repro.core.resilience import ResilienceContext
from repro.core.schema_mapping import SchemaMapping, identity_mapping
from repro.errors import (
    BestPeerError,
    PeerUnavailableError,
    QueryRejectedError,
    ReplicaUnavailableError,
    TransientNetworkError,
)
from repro.mapreduce.engine import MapReduceConfig
from repro.plan.sms import SmsPlanner
from repro.sim.clock import SimClock
from repro.sim.cloud import CloudProvider
from repro.sim.compute import ComputeModel, DEFAULT_COMPUTE_MODEL
from repro.sim.failure import FaultPlan
from repro.sim.network import NetworkConfig, SimNetwork
from repro.sqlengine.schema import TableSchema

#: Sentinel peer id the resilience layer uses for bootstrap-metadata RPCs:
#: ``is_crashed``/``failover`` map it to leader liveness and standby
#: promotion instead of a normal peer's Algorithm-1 fail-over.
BOOTSTRAP_PEER_ID = "bootstrap"


class BestPeerNetwork:
    """A whole BestPeer++ deployment in one in-process object."""

    def __init__(
        self,
        global_schemas: Dict[str, TableSchema],
        secondary_indices: Optional[Dict[str, List[str]]] = None,
        config: Optional[BestPeerConfig] = None,
        daemon_config: Optional[DaemonConfig] = None,
        mr_config: Optional[MapReduceConfig] = None,
        cost_params: Optional[CostParams] = None,
        compute_model: Optional[ComputeModel] = None,
        network_config: Optional[NetworkConfig] = None,
        index_policy: Optional["PartialIndexPolicy"] = None,
        lease_config: Optional[LeaseConfig] = None,
    ) -> None:
        self.clock = SimClock()
        self.network = SimNetwork(network_config)
        self.cloud = CloudProvider(self.network, self.clock)
        self.overlay = ReplicatedOverlay(BatonOverlay())
        self.config = config or BestPeerConfig()
        self.mr_config = mr_config or MapReduceConfig()
        self.cost_params = cost_params or CostParams()
        self.compute_model = compute_model or DEFAULT_COMPUTE_MODEL
        self.global_schemas = {
            name.lower(): schema for name, schema in global_schemas.items()
        }
        # The schemas never change: one planner, each SQL text compiled once.
        self.planner = SmsPlanner(self.global_schemas)
        self.secondary_indices = secondary_indices or {}
        self.metrics = MetricsRegistry()
        self.index_policy = index_policy or FULL_INDEX_POLICY
        self.peers: Dict[str, NormalPeer] = {}
        self.indexers: Dict[str, DataIndexer] = {}
        self.statistics: Dict[str, TableStatistics] = {}
        self._adaptive: Dict[str, AdaptiveEngine] = {}
        # Cumulative fail-over blocking time, exposed for benchmarks.
        self.total_blocked_s = 0.0
        # The retry/breaker/fail-over layer every engine call goes through.
        # Built before the bootstrap cluster: the cluster routes its log
        # shipping and lease RPCs through it.
        self.resilience = ResilienceContext(
            policy=self.config.fetch_retry,
            clock=self.clock,
            jitter_seed=self.config.retry_jitter_seed,
            metrics=self.metrics,
            breaker_failure_threshold=self.config.breaker_failure_threshold,
            breaker_reset_timeout_s=self.config.breaker_reset_timeout_s,
            is_crashed=self._peer_crashed,
            failover=self._failover_peer,
            deadline_s=self.config.query_deadline_s,
        )
        # The HA pair: primary + log-tailing standby behind a lease.
        self.bootstrap_cluster = BootstrapCluster(
            self.cloud, self.global_schemas, daemon_config,
            metrics=self.metrics,
            lease_config=lease_config,
            resilience=self.resilience,
        )
        # Current bootstrap-metadata operation; set by _bootstrap_op so
        # _bootstrap_attempt (the retried callable) can re-resolve the
        # leader on every attempt.
        self._bootstrap_fn = None
        # The serving front door, once attached (attach_serving).
        self.serving = None
        # Measured-load balancer over the overlay (hot-range migration,
        # census-gated); the console's ``baton status`` reads its counters.
        self.load_balancer = LoadBalancer(self.overlay)

    # ------------------------------------------------------------------
    # Bootstrap access (leader discovery with retry)
    # ------------------------------------------------------------------
    @property
    def bootstrap(self) -> BootstrapPeer:
        """The current bootstrap leader (primary, or promoted standby)."""
        return self.bootstrap_cluster.leader

    def _bootstrap_op(self, fn):
        """Run a metadata operation against the current bootstrap leader.

        ``fn(leader)`` executes on whichever node currently leads; if the
        leader is down, ``resilience.call`` escalates through its
        fail-over callback (standby promotion via
        :meth:`BootstrapCluster.recover`) and retries against the new
        leader — so joins and fail-over requests issued during a
        bootstrap outage eventually succeed instead of erroring out.
        """
        previous = self._bootstrap_fn
        self._bootstrap_fn = fn
        try:
            return self.resilience.call(
                BOOTSTRAP_PEER_ID, self._bootstrap_attempt
            )
        finally:
            self._bootstrap_fn = previous

    def _bootstrap_attempt(self):
        leader = self.bootstrap_cluster.require_leader()
        return self._bootstrap_fn(leader)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_peer(
        self,
        peer_id: str,
        instance_type: str = DEFAULT_INSTANCE_TYPE,
        tables: Optional[Sequence[str]] = None,
        mapping: Optional[SchemaMapping] = None,
    ) -> NormalPeer:
        """Launch a BestPeer++ instance for a new business and admit it.

        ``tables`` restricts which global tables this peer hosts (the
        throughput benchmark's supplier/retailer sub-schemas); default is
        all of them.
        """
        if peer_id in self.peers:
            raise BestPeerError(f"peer already exists: {peer_id!r}")
        if peer_id in self.bootstrap_cluster.nodes:
            raise BestPeerError(f"reserved peer id: {peer_id!r}")
        instance = self.cloud.launch_instance(
            instance_type=instance_type,
            security_group=f"vpn-{peer_id}",
        )
        peer = NormalPeer(
            peer_id, instance, config=self.config,
            compute_model=self.compute_model,
        )
        hosted = [
            name.lower() for name in (tables or self.global_schemas.keys())
        ]
        for name in hosted:
            peer.create_table(
                self.global_schemas[name],
                self.secondary_indices.get(name, ()),
            )
        peer.set_schema_mapping(
            mapping
            or identity_mapping(self.global_schemas, tables=hosted)
        )
        def _register(leader):
            # Retry idempotency: a crash on the commit's own transfers can
            # refuse the ack *after* the admission replicated; on the next
            # attempt the promoted standby already holds the entry, and
            # re-registering would double-admit.
            resumed = leader.resume_join(peer)
            if resumed is not None:
                return resumed
            return leader.register_peer(peer, now=self.clock.now)

        self._bootstrap_op(_register)
        self.overlay.join(peer_id)
        self.peers[peer_id] = peer
        self.indexers[peer_id] = DataIndexer(
            self.overlay,
            cache_enabled=self.config.index_cache_enabled,
            policy=self.index_policy,
        )
        return peer

    def depart_peer(self, peer_id: str) -> None:
        """Voluntary departure (§3.1): blacklist, revoke, withdraw indexes."""
        peer = self._peer(peer_id)
        self.indexers[peer_id].unpublish_all(peer_id)
        self.overlay.leave(peer_id)
        def _depart(leader):
            if not leader.resume_departure(peer_id):
                leader.handle_departure(peer_id)

        self._bootstrap_op(_depart)
        del self.peers[peer_id]
        del self.indexers[peer_id]
        self._adaptive.pop(peer_id, None)
        for indexer in self.indexers.values():
            indexer.clear_cache()

    # ------------------------------------------------------------------
    # Data loading
    # ------------------------------------------------------------------
    def load_peer(
        self,
        peer_id: str,
        data: Dict[str, List[tuple]],
        range_columns: Optional[Dict[str, Sequence[str]]] = None,
        backup: bool = True,
    ) -> None:
        """Initial-load a peer's partitions, publish indexes, snapshot.

        ``range_columns`` selects the columns to build BATON range indexes
        on (the throughput benchmark adds one on the nation key, §6.2.2).
        """
        peer = self._peer(peer_id)
        for table, rows in data.items():
            schema = self.global_schemas[table.lower()]
            bytes_before = peer.database.total_bytes
            delta = peer.load_initial(
                table, schema.column_names, rows, now=self.clock.now
            )
            self._fold_statistics(delta, peer.database.total_bytes - bytes_before)
        peer.publish_indices(self.indexers[peer_id], range_columns)
        for indexer in self.indexers.values():
            indexer.clear_cache()
        if backup:
            peer.backup_to(self.cloud)

    def refresh_peer(
        self,
        peer_id: str,
        table: str,
        rows: List[tuple],
        range_columns: Optional[Dict[str, Sequence[str]]] = None,
        backup: bool = True,
    ):
        """Differential refresh of one table (the offline data flow, §4.2).

        Re-extracts the table through the snapshot-differential loader,
        republishes those of its index entries that moved (its min/max may
        have), tells the statistics module, and takes a fresh EBS snapshot.
        A refresh the loader refuses changes nothing.  Returns the
        :class:`~repro.core.loader.SnapshotDelta`.
        """
        peer = self._peer(peer_id)
        schema = self.global_schemas[table.lower()]
        bytes_before = peer.database.total_bytes
        delta = peer.refresh(
            table, schema.column_names, rows, now=self.clock.now
        )
        self._fold_statistics(delta, peer.database.total_bytes - bytes_before)
        self.indexers[peer_id].sync_table(
            peer_id, peer.database.table(delta.table), range_columns
        )
        for other in self.indexers.values():
            other.clear_cache()
        if backup:
            peer.backup_to(self.cloud)
        return delta

    def build_histogram(
        self, table: str, columns: Sequence[str], num_buckets: int = 16
    ) -> Histogram:
        """Build a global MHIST histogram over all peers' partitions."""
        rows: List[tuple] = []
        for peer in self.peers.values():
            if not peer.database.has_table(table):
                continue
            owned = peer.database.table(table)
            pick = itemgetter(*map(owned.schema.column_index, columns))
            picked = map(pick, owned.rows())
            # itemgetter of one position yields the bare value: wrap it.
            rows.extend(picked if len(columns) > 1 else zip(picked))
        histogram = Histogram.build(columns, rows, num_buckets)
        stats = self.statistics.get(table.lower())
        if stats is not None:
            stats.histogram = histogram
        return histogram

    def _fold_statistics(self, delta: SnapshotDelta, nbytes: int) -> None:
        """Apply one load/refresh delta to the table's global row and byte
        counts, in O(1); histograms stay as :meth:`build_histogram` built them."""
        entry = self.statistics.setdefault(
            delta.table, TableStatistics(delta.table, 0.0, 0)
        )
        entry.total_bytes += nbytes
        entry.row_count += len(delta.inserted) - len(delta.deleted)

    # ------------------------------------------------------------------
    # Users and roles
    # ------------------------------------------------------------------
    def define_role(self, role: Role) -> None:
        self._bootstrap_op(lambda leader: leader.define_role(role))

    def create_full_access_role(self, name: str = "R") -> Role:
        """The benchmark's role R, granted full access to all tables."""
        role = full_access_role(name, self.global_schemas.values())
        self.define_role(role)
        return role

    def create_user(self, user: str, origin_peer_id: str, role: Role) -> None:
        """Create a user at one peer and broadcast it network-wide (§4.4)."""
        self._bootstrap_op(
            lambda leader: leader.register_user(user, origin_peer_id)
        )
        for peer in self.peers.values():
            peer.access.assign(user, role)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        peer_id: Optional[str] = None,
        engine: str = DEFAULT_ENGINE,
        user: Optional[str] = None,
    ) -> QueryExecution:
        """Submit a query at ``peer_id`` (default: first peer).

        Handles the two §3.2/§5 failure semantics: a *rejected* query
        (Definition 2 snapshot conflict) is resubmitted with a fresh
        timestamp; an *unavailable* peer blocks the query until fail-over
        completes, charging the wait to the query's latency.
        """
        if not self.peers:
            raise BestPeerError("the network has no peers")
        if peer_id is None:
            peer_id = sorted(self.peers)[0]
        runner = self._engine(peer_id, engine)

        policy = self.config.query_retry
        blocked_s = 0.0   # time blocked on Algorithm-1 fail-over
        waited_s = 0.0    # retry backoff (sub-query and query level)
        advanced_s = 0.0  # sim-clock time the waits already advanced

        def absorb(session) -> None:
            """Fold one attempt's resilience accounting into the query's."""
            nonlocal blocked_s, waited_s, advanced_s
            waited_s += session.waited_s
            blocked_s += session.blocked_failover_s
            self.total_blocked_s += session.blocked_failover_s
            advanced_s += session.advanced_s

        for attempt in range(policy.max_attempts):
            session = self.resilience.begin_query()
            timestamp = self.clock.now
            try:
                execution = runner.execute(sql, user=user, timestamp=timestamp)
            except QueryRejectedError:
                absorb(session)
                if attempt == policy.max_attempts - 1:
                    raise
                # "it rejects the query and notifies the query processor,
                # which will terminate the query and resubmit it" — the
                # resubmission happens after the conflicting refresh, so its
                # fresh timestamp covers every peer's snapshot.
                latest_refresh = max(
                    peer.last_refresh_at for peer in self.peers.values()
                )
                if latest_refresh > self.clock.now:
                    self.clock.advance_to(latest_refresh)
                continue
            except TransientNetworkError:
                absorb(session)
                deadline = session.deadline
                if deadline is not None and deadline.exceeded(self.clock.now):
                    raise  # a blown deadline must not restart the query
                if attempt == policy.max_attempts - 1:
                    raise
                # The sub-query retry layer gave up on one partition; back
                # off and resubmit the whole query with a fresh timestamp.
                backoff = policy.backoff_s(attempt + 1, self.resilience.rng)
                self.clock.advance(backoff)
                waited_s += backoff
                advanced_s += backoff
                self.metrics.faults.retries += 1
                continue
            except (PeerUnavailableError, ReplicaUnavailableError):
                absorb(session)
                if attempt == policy.max_attempts - 1:
                    raise
                # Strong consistency: block until the bootstrap daemon has
                # failed the peer over, then retry.
                report = self.run_maintenance()
                waited = sum(event.duration_s for event in report.failovers)
                blocked_s += waited
                self.total_blocked_s += waited
                continue
            absorb(session)
            execution.latency_s += blocked_s + waited_s
            execution.blocked_on_failover_s = blocked_s
            execution.retry_backoff_s = waited_s
            # Waits taken through the resilience layer already advanced the
            # clock; only advance by the remainder.
            self.clock.advance(max(0.0, execution.latency_s - advanced_s))
            self.metrics.record(execution)
            return execution
        raise BestPeerError("unreachable")  # pragma: no cover

    def attach_serving(self, config: Optional[ServingConfig] = None):
        """Put the serving front door in front of every engine.

        Returns a :class:`repro.serving.frontdoor.ServingFrontDoor` whose
        executor is this network's :meth:`execute` — admitted requests run
        through whichever engine the request names (``basic``,
        ``parallel``, ``mapreduce`` or ``adaptive``) and the per-tenant
        SLO counters land in this network's metrics registry.
        """
        # Imported lazily: repro.serving builds on repro.core, so a
        # module-level import here would be circular.
        from repro.serving.frontdoor import ServingFrontDoor

        def run(request) -> QueryExecution:
            return self.execute(
                request.sql,
                peer_id=request.peer_id,
                engine=request.engine,
                user=request.user,
            )

        self.serving = ServingFrontDoor(
            self.clock, run, config=config, metrics=self.metrics
        )
        return self.serving

    def _engine(self, peer_id: str, engine: str):
        context = self._context(peer_id)
        if engine == "basic":
            return BasicEngine(context)
        if engine == "parallel":
            return ParallelP2PEngine(context)
        if engine == "mapreduce":
            return BestPeerMapReduceEngine(context, self.mr_config)
        if engine == "adaptive":
            adaptive = self._adaptive.get(peer_id)
            if adaptive is None:
                adaptive = AdaptiveEngine(
                    context,
                    params=self.cost_params,
                    mr_config=self.mr_config,
                    statistics=self.statistics,
                )
                self._adaptive[peer_id] = adaptive
            return adaptive
        raise BestPeerError(f"unknown engine: {engine!r}")

    def _context(self, peer_id: str) -> EngineContext:
        return EngineContext(
            query_peer=self._peer(peer_id),
            peers=self.peers,
            indexer=self.indexers[peer_id],
            network=self.network,
            schemas=self.global_schemas,
            config=self.config,
            compute_model=self.compute_model,
            planner=self.planner,
            resilience=self.resilience,
        )

    # ------------------------------------------------------------------
    # Failures and maintenance
    # ------------------------------------------------------------------
    def crash_peer(self, peer_id: str) -> None:
        peer = self._peer(peer_id)
        self.cloud.crash_instance(peer.host)
        self.overlay.mark_offline(peer_id)

    def install_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Arm message-level fault injection for subsequent queries.

        ``plan.crash_after`` entries may name peers or their hosts; when a
        trigger fires, the named peer's instance crashes mid-query exactly
        as a machine failure would — the resilience layer then recovers it
        through the bootstrap's fail-over.  Pass ``None`` to disarm.
        """
        if plan is None:
            self.network.install_fault_plan(None)
            return

        def on_crash(target: str) -> None:
            node = self.bootstrap_cluster.node_for(target)
            if node is not None:
                self.bootstrap_cluster.crash_node(node.node_id)
                return
            for peer_id, peer in self.peers.items():
                if target in (peer_id, peer.host):
                    if peer.online and not self.network.is_partitioned(
                        peer.host
                    ):
                        self.crash_peer(peer_id)
                    return

        self.network.install_fault_plan(plan, on_crash=on_crash)

    def crash_bootstrap(self) -> None:
        """Crash the current bootstrap leader's instance."""
        self.bootstrap_cluster.crash_node(self.bootstrap_cluster.leader_id)

    def run_maintenance(self) -> MaintenanceReport:
        """One epoch of the bootstrap's Algorithm-1 daemon.

        Runs on whichever node currently leads; a dead leader is replaced
        (standby promotion) before the epoch executes.
        """
        report = self._bootstrap_op(
            lambda leader: leader.run_maintenance_epoch(self.peers)
        )
        for event in report.failovers:
            # The peer is back on a fresh instance; overlay-wise it is the
            # same logical node.
            self.overlay.mark_online(event.peer_id)
            self.metrics.record_event(
                self.clock.now,
                f"failover: {event.peer_id} {event.old_instance_id} -> "
                f"{event.new_instance_id}",
            )
        self.metrics.faults.failovers += len(report.failovers)
        return report

    def _peer_crashed(self, peer_id: str) -> bool:
        """Is this peer genuinely down (vs. a transient delivery fault)?"""
        if peer_id == BOOTSTRAP_PEER_ID:
            return not self.bootstrap_cluster.leader_available()
        peer = self.peers.get(peer_id)
        if peer is None:
            return False
        return not peer.online or self.network.is_partitioned(peer.host)

    def _failover_peer(self, peer_id: str) -> float:
        """Block on the daemon until ``peer_id`` is failed over (§3.2).

        Returns the simulated seconds the query spent blocked.  With a
        suspicion threshold above one the daemon needs several epochs to
        act; each suspected-only epoch costs one heartbeat interval.  The
        bootstrap sentinel maps to standby promotion instead: the block
        is the remainder of the dead leader's lease.
        """
        if peer_id == BOOTSTRAP_PEER_ID:
            return self.bootstrap_cluster.recover()
        blocked = 0.0
        config = self.bootstrap.daemon_config
        for _ in range(config.suspicion_threshold + 1):
            report = self.run_maintenance()
            blocked += sum(event.duration_s for event in report.failovers)
            if peer_id in report.suspected_peers:
                blocked += config.epoch_s
            if not self._peer_crashed(peer_id):
                break
        return blocked

    def rebalance_overlay(self) -> RebalanceReport:
        """One measured-load balancing round over the BATON overlay.

        Detects nodes whose traffic exceeds ``hot_multiple`` times the
        overlay mean, migrates index entries off them (census-gated: a
        lost or duplicated entry raises
        :class:`~repro.errors.MigrationCensusError`) and repairs replicas.
        Call it from maintenance loops alongside :meth:`run_maintenance`.
        """
        report = self.load_balancer.rebalance()
        if report.migrations:
            self.metrics.record_event(
                self.clock.now,
                f"overlay rebalance: moved {report.entries_moved} entries "
                f"off {len(report.hot_nodes)} hot node(s), "
                f"max/mean {report.ratio_before:.2f} -> "
                f"{report.ratio_after:.2f}",
            )
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _peer(self, peer_id: str) -> NormalPeer:
        peer = self.peers.get(peer_id)
        if peer is None:
            raise BestPeerError(f"unknown peer: {peer_id!r}")
        return peer
