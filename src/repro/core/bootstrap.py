"""The bootstrap peer (§3), made survivable.

Run by the BestPeer++ service provider, the bootstrap peer is the network's
entry point and administrator: it manages peer join/departure (§3.1), acts
as the CA and the central metadata repository (global schema, peer list,
role definitions, user registry, §2.2), and runs the maintenance daemon of
Algorithm 1 — monitoring every normal peer through CloudWatch and scheduling
auto fail-over and auto-scaling events (§3.2).

Since the bootstrap administers everybody else's fail-over, it must itself
survive failures.  Two layers provide that:

* :class:`BootstrapPeer` no longer mutates metadata in place.  Every
  mutation is a typed record committed to a
  :class:`~repro.core.metalog.MetadataLog` and folded into
  :class:`~repro.core.metalog.BootstrapState` by the single
  :func:`~repro.core.metalog.apply` reducer (rule ATOM001 enforces this).
  Each commit runs under the lease/epoch protocol of
  :mod:`repro.core.leadership`; the epoch fences stale leaders out of the
  log and strides the certificate serial space.

* :class:`BootstrapCluster` runs a primary/standby pair.  The leader ships
  every committed entry to the standby over the priced
  :class:`~repro.sim.network.SimNetwork`; when the leader dies (or is
  partitioned away) :meth:`BootstrapCluster.recover` waits out the lease
  and promotes the standby, which replays its copy of the log and resumes
  Algorithm 1 — finishing any fail-over that was in flight when the
  primary died (the ``pending_failovers`` it inherited through the log).

Constructing a bare ``BootstrapPeer(cloud, schemas)`` still works and
behaves exactly as before (single node, epoch 0, no replication), so the
pre-HA call sites and tests are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import metalog
from repro.core.access_control import Role
from repro.core.certificates import Certificate, CertificateAuthority
from repro.core.config import DaemonConfig, LeaseConfig
from repro.core.leadership import LeadershipHandle, LeaseService
from repro.core.metalog import MetadataLog, PeerRecord
from repro.core.metrics import MetricsRegistry
from repro.core.peer import NormalPeer
from repro.errors import (
    BestPeerError,
    BootstrapUnavailableError,
    InstanceNotFound,
    MembershipError,
    NetworkError,
)
from repro.sim.cloud import (
    CloudProvider,
    INSTANCE_LAUNCH_TIME_S,
    InstanceState,
)
from repro.sqlengine.schema import TableSchema

#: Host id of the (simulated) lock service the lease protocol talks to.
LEASE_SERVICE_HOST = "lease-service"
#: Instance/host id of the standby bootstrap node.
BOOTSTRAP_STANDBY_ID = "bootstrap-standby"


@dataclass
class JoinGrant:
    """What a newly admitted peer receives (§3.1)."""

    certificate: Certificate
    participants: List[str]
    global_schemas: Dict[str, TableSchema]
    roles: Dict[str, Role]


@dataclass
class FailoverEvent:
    peer_id: str
    old_instance_id: str
    new_instance_id: str
    duration_s: float
    restored_rows: int


@dataclass
class ScalingEvent:
    peer_id: str
    action: str  # "upgrade" | "add-storage"
    detail: str


@dataclass
class MaintenanceReport:
    """Outcome of one daemon epoch (one pass of Algorithm 1)."""

    failovers: List[FailoverEvent] = field(default_factory=list)
    scalings: List[ScalingEvent] = field(default_factory=list)
    released_instances: List[str] = field(default_factory=list)
    notified_peers: int = 0
    # Blacklisted instances the cloud no longer knows about (already
    # reclaimed out of band); skipped rather than released.
    release_skips: int = 0
    # Peers that missed a heartbeat this epoch but have not yet crossed
    # the suspicion threshold (miss-count failure detection).
    suspected_peers: List[str] = field(default_factory=list)


class BootstrapPeer:
    """One provider-run coordinator node (primary, standby, or standalone).

    All metadata lives in ``self.state``, which only the WAL reducer may
    touch; the mutators below build records and push them through
    :meth:`_commit`.  ``leadership`` and ``replicate`` are ``None`` in
    standalone mode — commits then carry epoch 0 and stay local.
    """

    def __init__(
        self,
        cloud: CloudProvider,
        global_schemas: Dict[str, TableSchema],
        daemon_config: Optional[DaemonConfig] = None,
        ca_secret: str = "bestpeer-ca",
        admission_policy: Optional[Callable[[str], bool]] = None,
        metrics: Optional[MetricsRegistry] = None,
        *,
        node_id: str = "bootstrap",
        leadership: Optional[LeadershipHandle] = None,
        replicate: Optional[Callable[[metalog.LogEntry], None]] = None,
        seed_schemas: bool = True,
    ) -> None:
        self.cloud = cloud
        self.metrics = metrics
        self.node_id = node_id
        self.instance = cloud.launch_instance(
            instance_type="m1.large", instance_id=node_id
        )
        self._ca_secret = ca_secret
        self.ca = CertificateAuthority(ca_secret)
        self.daemon_config = daemon_config or DaemonConfig()
        # §3.1: "If the join request is permitted by the service provider".
        self.admission_policy = admission_policy
        self.leadership = leadership
        self.replicate = replicate
        self.log = MetadataLog()
        self.state = metalog.BootstrapState()
        # Miss-count failure detector: consecutive missed heartbeats per
        # peer; a fail-over triggers only at the suspicion threshold.
        # Ephemeral (not WAL'd): a promoted standby restarts detection.
        self._missed_heartbeats: Dict[str, int] = {}
        if seed_schemas:
            for name in sorted(global_schemas):
                self._commit(
                    metalog.SchemaRegistered(name, global_schemas[name])
                )

    # ------------------------------------------------------------------
    # WAL plumbing
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.instance.instance_id

    @property
    def online(self) -> bool:
        return self.instance.state is InstanceState.RUNNING

    @property
    def epoch(self) -> int:
        """Epoch this node last led under (0 when it never led)."""
        return self.leadership.epoch if self.leadership is not None else 0

    # Read-only views kept for the pre-WAL API surface.
    @property
    def global_schemas(self) -> Dict[str, TableSchema]:
        return self.state.schemas

    @property
    def roles(self) -> Dict[str, Role]:
        return self.state.roles

    @property
    def user_registry(self) -> Dict[str, str]:
        return self.state.user_registry

    @property
    def _peers(self) -> Dict[str, PeerRecord]:
        return self.state.peers

    @property
    def _blacklist(self) -> List[PeerRecord]:
        return self.state.blacklist

    def _require_online(self) -> None:
        if not self.online:
            raise BootstrapUnavailableError(
                f"bootstrap node {self.node_id!r} is down"
            )

    def _commit(self, record: metalog.MetaRecord) -> metalog.LogEntry:
        """Append one record under the current epoch, apply it, ship it.

        The post-replication ``online`` check refuses to acknowledge a
        commit during which this node itself crashed (the crash fired on
        one of the commit's own transfers): the entry stays in this dead
        node's log, which will never be authoritative again, and the
        caller retries against the promoted standby.
        """
        self._require_online()
        epoch = 0
        if self.leadership is not None:
            epoch = self.leadership.ensure_leader().epoch
        entry = self.log.append(record, epoch)
        self.apply_entry(entry)
        if self.replicate is not None:
            self.replicate(entry)
        self._require_online()
        return entry

    def apply_entry(self, entry: metalog.LogEntry) -> None:
        """Fold an entry into local state, mirroring CA side effects.

        Used by the committing leader and by followers tailing the log: a
        replicated admission installs the leader-issued certificate into
        this node's CA (same shared secret), a departure revokes it, so a
        promoted standby can keep verifying every outstanding credential.
        """
        record = entry.record
        if isinstance(record, metalog.PeerAdmitted):
            self.ca.install(record.certificate)
        elif isinstance(record, metalog.PeerDeparted):
            member = self.state.peers.get(record.peer_id)
            if member is not None:
                self.ca.revoke(member.certificate)
        metalog.apply(self.state, entry)

    def receive_entry(self, entry: metalog.LogEntry) -> None:
        """Adopt one entry shipped by the leader (standby tail path)."""
        self.log.receive(entry)
        self.apply_entry(entry)

    def rebuild(self, entries: Sequence[metalog.LogEntry]) -> None:
        """Re-materialize everything from a full log copy (resync)."""
        self.log = MetadataLog()
        self.state = metalog.BootstrapState()
        self.ca = CertificateAuthority(self._ca_secret)
        for entry in entries:
            self.receive_entry(entry)

    # ------------------------------------------------------------------
    # Roles (the provider "defines a standard set of roles", §4.4)
    # ------------------------------------------------------------------
    def define_role(self, role: Role) -> None:
        self._commit(metalog.RoleDefined(role))

    # ------------------------------------------------------------------
    # Membership (§3.1)
    # ------------------------------------------------------------------
    def register_peer(self, peer: NormalPeer, now: float = 0.0) -> JoinGrant:
        """Admit a normal peer into the corporate network."""
        self._require_online()
        if peer.peer_id in self.state.peers:
            raise MembershipError(f"peer already joined: {peer.peer_id!r}")
        if any(
            record.peer_id == peer.peer_id
            for record in self.state.blacklist
        ):
            raise MembershipError(f"peer is blacklisted: {peer.peer_id!r}")
        if self.admission_policy is not None and not self.admission_policy(
            peer.peer_id
        ):
            raise MembershipError(
                f"the service provider rejected the join request of "
                f"{peer.peer_id!r}"
            )
        # The serial is strided by the leader's epoch and derived from the
        # WAL-materialized state, so a stale leader and its successor can
        # never hand out the same serial (split-brain safety), while a
        # standalone bootstrap (epoch 0) keeps the historical 1, 2, 3...
        epoch = (
            self.leadership.ensure_leader().epoch
            if self.leadership is not None
            else 0
        )
        serial = metalog.next_serial(self.state, epoch)
        certificate = self.ca.issue(peer.peer_id, now, serial=serial)
        # §3.1: credentials are checked against the CA before the peer is
        # admitted or handed anything — a revoked or cross-signed
        # certificate must never enter the membership records.
        if not self.ca.verify(certificate):
            raise MembershipError(
                f"certificate for {peer.peer_id!r} failed CA verification"
            )
        self._commit(
            metalog.PeerAdmitted(peer.peer_id, certificate, peer.host)
        )
        peer.certificate = certificate
        return JoinGrant(
            certificate=certificate,
            participants=self.peer_list(),
            global_schemas=dict(self.state.schemas),
            roles=dict(self.state.roles),
        )

    def resume_join(self, peer: NormalPeer) -> Optional[JoinGrant]:
        """Resume a join whose commit was durable but whose ack was lost.

        A leader can crash on one of its own commit's transfers *after*
        the admission replicated to the standby: the caller sees an
        unavailability error even though the entry survives on the node
        about to be promoted.  Retrying :meth:`register_peer` there would
        hit the double-join guard.  If this exact instance is already a
        member, return the grant the lost acknowledgement would have
        carried; otherwise ``None`` and the caller registers normally.
        A *different* instance claiming an admitted peer id is not a
        resume — it falls through to the double-join rejection.
        """
        self._require_online()
        record = self.state.peers.get(peer.peer_id)
        if record is None or record.instance_id != peer.host:
            return None
        # The stored credential must still verify before it is re-handed
        # out — a revocation between the attempts voids the resume.
        if not self.ca.verify(record.certificate):
            raise MembershipError(
                f"cannot resume join for {peer.peer_id!r}: stored "
                f"certificate failed CA verification"
            )
        peer.certificate = record.certificate
        return JoinGrant(
            certificate=record.certificate,
            participants=self.peer_list(),
            global_schemas=dict(self.state.schemas),
            roles=dict(self.state.roles),
        )

    def handle_departure(self, peer_id: str) -> None:
        """Process a voluntary departure: blacklist, revoke, reclaim."""
        if peer_id not in self.state.peers:
            raise MembershipError(f"unknown peer: {peer_id!r}")
        self._missed_heartbeats.pop(peer_id, None)
        # apply_entry revokes the certificate before the reducer moves the
        # record onto the blacklist.
        self._commit(metalog.PeerDeparted(peer_id))

    def resume_departure(self, peer_id: str) -> bool:
        """True when a departure that lost its ack is already durable here.

        Mirror image of :meth:`resume_join`: the departure record may have
        replicated before the committing leader crashed, so a retry on the
        promoted standby finds the peer already blacklisted and must treat
        that as success rather than "unknown peer".
        """
        self._require_online()
        return peer_id not in self.state.peers and any(
            record.peer_id == peer_id for record in self.state.blacklist
        )

    def peer_list(self) -> List[str]:
        return sorted(self.state.peers)

    def is_member(self, peer_id: str) -> bool:
        return peer_id in self.state.peers

    def verify_certificate(self, certificate: Certificate) -> bool:
        return self.ca.verify(certificate)

    # ------------------------------------------------------------------
    # User registry (§4.4)
    # ------------------------------------------------------------------
    def register_user(self, user: str, origin_peer_id: str) -> None:
        if origin_peer_id not in self.state.peers:
            raise MembershipError(
                f"users must originate at a member peer: {origin_peer_id!r}"
            )
        self._commit(metalog.UserRegistered(user, origin_peer_id))

    # ------------------------------------------------------------------
    # Algorithm 1: the maintenance daemon
    # ------------------------------------------------------------------
    def run_maintenance_epoch(
        self, peers: Dict[str, NormalPeer]
    ) -> MaintenanceReport:
        """One pass of the daemon: monitor, fail-over, auto-scale, release.

        ``peers`` maps peer id -> the live peer object (the in-process stand
        -in for "asking the instance to recover"); the *decision* inputs come
        exclusively from CloudWatch, as in the paper.

        A freshly promoted standby first finishes fail-overs the old
        primary had started but not completed (``pending_failovers``
        inherited through the log), then runs the normal monitor loop.
        """
        self._require_online()
        report = MaintenanceReport()
        config = self.daemon_config
        for peer_id in sorted(self.state.pending_failovers):
            peer = peers.get(peer_id)
            if peer is None:
                continue
            report.failovers.append(
                self._complete_failover(self.state.peers[peer_id], peer)
            )
        for peer_id in self.peer_list():
            peer = peers.get(peer_id)
            if peer is None:
                continue
            record = self.state.peers[peer_id]
            if not self.cloud.cloudwatch.is_responsive(record.instance_id):
                # Miss-count failure detection: declare the peer failed only
                # after ``suspicion_threshold`` consecutive missed
                # heartbeats, so transient unreachability (message loss,
                # short outages) does not trigger a spurious fail-over.
                missed = self._missed_heartbeats.get(peer_id, 0) + 1
                if missed >= config.suspicion_threshold:
                    self._missed_heartbeats[peer_id] = 0
                    report.failovers.append(self._failover(record, peer))
                else:
                    self._missed_heartbeats[peer_id] = missed
                    report.suspected_peers.append(peer_id)
                continue
            self._missed_heartbeats[peer_id] = 0
            # Fold the peer's busy time since the last epoch into the
            # CloudWatch CPU gauge the decisions below read.
            peer.update_cpu_metric(config.epoch_s)
            metrics = self.cloud.cloudwatch.metrics(record.instance_id)
            if metrics["cpu_utilization"] > config.cpu_overload_threshold:
                upgraded = self._upgrade(record, peer)
                if upgraded is not None:
                    report.scalings.append(upgraded)
            if metrics["free_storage_gb"] < config.free_storage_threshold_gb:
                self.cloud.add_storage(
                    record.instance_id, config.storage_increment_gb
                )
                report.scalings.append(
                    ScalingEvent(
                        peer_id,
                        "add-storage",
                        f"+{config.storage_increment_gb} GB",
                    )
                )
        # "At the end of each maintenance epoch, the bootstrap releases the
        # resources in the blacklist and notifies the changes."
        for record in self.state.blacklist:
            try:
                instance = self.cloud.describe_instance(record.instance_id)
            except InstanceNotFound:
                # The instance was already reclaimed out of band; count the
                # skip so silent leaks of blacklist entries stay visible.
                report.release_skips += 1
                if self.metrics is not None:
                    self.metrics.faults.blacklist_release_skips += 1
                continue
            if instance.state is not InstanceState.TERMINATED:
                if instance.state is InstanceState.CRASHED:
                    instance.state = InstanceState.RUNNING  # reclaimable
                self.cloud.terminate_instance(record.instance_id)
                report.released_instances.append(record.instance_id)
        if self.state.blacklist:
            self._commit(
                metalog.BlacklistReleased(
                    tuple(held.instance_id for held in self.state.blacklist)
                )
            )
        report.notified_peers = len(self.state.peers)
        return report

    def _failover(self, record: PeerRecord, peer: NormalPeer) -> FailoverEvent:
        """Fail-over one crashed peer (lines 6-10 of Algorithm 1).

        Committed in two records — ``FailoverStarted`` before any resource
        is touched, ``FailoverCompleted`` once the replacement is up — so a
        bootstrap that dies in between leaves a durable marker the
        promoted standby picks up and finishes.
        """
        self._commit(
            metalog.FailoverStarted(record.peer_id, record.instance_id)
        )
        return self._complete_failover(record, peer)

    def _complete_failover(
        self, record: PeerRecord, peer: NormalPeer
    ) -> FailoverEvent:
        self._require_online()
        old_instance_id = self.state.pending_failovers[record.peer_id]
        snapshot = self.cloud.latest_snapshot(old_instance_id)
        new_instance = self.cloud.launch_instance(
            instance_type=peer.instance.instance_type.name,
            storage_gb=peer.instance.storage_gb,
            security_group=peer.instance.security_group,
        )
        duration = (
            self.daemon_config.detection_delay_s + INSTANCE_LAUNCH_TIME_S
        )
        restored_rows = 0
        if snapshot is not None:
            duration += self.cloud.restore_duration_s(snapshot)
        # The reducer blacklists the failed instance (released at epoch
        # end) and rebinds the membership record to the replacement.
        self._commit(
            metalog.FailoverCompleted(
                record.peer_id, old_instance_id, new_instance.instance_id
            )
        )
        peer.rebind_instance(new_instance)
        if snapshot is not None:
            peer.restore_from_payload(snapshot.payload)
            restored_rows = snapshot.payload.total_rows
        return FailoverEvent(
            peer_id=record.peer_id,
            old_instance_id=old_instance_id,
            new_instance_id=new_instance.instance_id,
            duration_s=duration,
            restored_rows=restored_rows,
        )

    def _upgrade(
        self, record: PeerRecord, peer: NormalPeer
    ) -> Optional[ScalingEvent]:
        current = peer.instance.instance_type.name
        bigger = self.cloud.scale_up_type(current)
        if bigger is None:
            return None
        self.cloud.resize_instance(record.instance_id, bigger)
        return ScalingEvent(record.peer_id, "upgrade", f"{current} -> {bigger}")


class BootstrapCluster:
    """A primary/standby bootstrap pair behind lease-based leadership.

    The primary leads from epoch 1 and ships every committed log entry to
    the standby over the priced network.  :meth:`recover` implements
    promotion: wait out the old leader's lease (nobody else may lead
    before it expires — that is what makes split-brain impossible), have
    the standby acquire the lease (bumping the epoch), and let the next
    maintenance epoch finish whatever the old primary left in flight.

    Replication is synchronous towards a *healthy* standby: if shipping
    an entry fails while CloudWatch still sees the standby as responsive,
    the leader itself is presumed cut off and the commit is refused
    (:class:`~repro.errors.BootstrapUnavailableError`), so an
    acknowledged mutation can never be lost by a subsequent promotion.
    Entries for a standby that is genuinely down are backlogged and
    re-shipped once it returns.
    """

    def __init__(
        self,
        cloud: CloudProvider,
        global_schemas: Dict[str, TableSchema],
        daemon_config: Optional[DaemonConfig] = None,
        ca_secret: str = "bestpeer-ca",
        admission_policy: Optional[Callable[[str], bool]] = None,
        metrics: Optional[MetricsRegistry] = None,
        lease_config: Optional[LeaseConfig] = None,
        resilience=None,
        standby_node_id: str = BOOTSTRAP_STANDBY_ID,
    ) -> None:
        self.cloud = cloud
        self.network = cloud.network
        self.clock = cloud.clock
        self.metrics = metrics
        self.resilience = resilience
        self.lease_config = lease_config or LeaseConfig()
        self.service = LeaseService(self.lease_config)
        if not self.network.has_host(LEASE_SERVICE_HOST):
            self.network.add_host(LEASE_SERVICE_HOST)
        self.nodes: Dict[str, BootstrapPeer] = {}
        self.promotions = 0
        self._backlog: Dict[str, List[metalog.LogEntry]] = {}
        # Fields read by _send (the cluster's single transfer site).
        self._send_src = ""
        self._send_dst = ""
        self._send_bytes = 0
        # Set before constructing the primary: its schema seeding already
        # commits (and hence calls _replicate_entry, a no-op while the
        # node table below is still empty).
        self.leader_id = "bootstrap"
        primary = BootstrapPeer(
            cloud, global_schemas, daemon_config, ca_secret,
            admission_policy, metrics,
            node_id="bootstrap",
            leadership=self._handle_for("bootstrap"),
            replicate=self._replicate_entry,
            seed_schemas=True,
        )
        self.nodes[primary.node_id] = primary
        standby = BootstrapPeer(
            cloud, global_schemas, daemon_config, ca_secret,
            admission_policy, metrics,
            node_id=standby_node_id,
            leadership=self._handle_for(standby_node_id),
            replicate=self._replicate_entry,
            seed_schemas=False,
        )
        self.nodes[standby.node_id] = standby
        # Initial sync: ship the primary's existing log (schema seeding)
        # to the fresh standby in one priced batch.
        self._resync(primary, standby)

    def _handle_for(self, node_id: str) -> LeadershipHandle:
        def send() -> float:
            return self._priced_send(
                node_id, LEASE_SERVICE_HOST, self.lease_config.rpc_bytes
            )

        return LeadershipHandle(node_id, self.service, self.clock, send=send)

    # ------------------------------------------------------------------
    # Leader access
    # ------------------------------------------------------------------
    @property
    def leader(self) -> BootstrapPeer:
        return self.nodes[self.leader_id]

    @property
    def epoch(self) -> int:
        return self.leader.epoch

    def node_for(self, target: str) -> Optional[BootstrapPeer]:
        """The cluster node whose id/host is ``target``, if any."""
        return self.nodes.get(target)

    def leader_available(self) -> bool:
        return self.cloud.cloudwatch.is_responsive(self.leader.host)

    def require_leader(self) -> BootstrapPeer:
        if not self.leader_available():
            raise BootstrapUnavailableError(
                f"bootstrap leader {self.leader_id!r} is unreachable"
            )
        return self.leader

    def crash_node(self, node_id: str) -> None:
        """Crash one bootstrap node's instance (chaos entry point)."""
        node = self.nodes[node_id]
        if node.online and not self.network.is_partitioned(node.host):
            self.cloud.crash_instance(node.host)

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------
    def recover(self) -> float:
        """Promote a standby after the leader failed; returns blocked time.

        No-op (0.0) when the current leader is actually reachable.  The
        wall the caller pays is the remainder of the old leader's lease:
        only after it lapses may the standby's ``acquire`` succeed and
        bump the epoch.
        """
        if self.leader_available():
            return 0.0
        blocked = 0.0
        lease = self.service.lease
        if (
            lease is not None
            and lease.holder == self.leader_id
            and lease.valid(self.clock.now)
        ):
            blocked = lease.expires_at - self.clock.now
            self.clock.advance(blocked)
        candidates = [
            node_id
            for node_id in sorted(self.nodes)
            if node_id != self.leader_id
            and self.cloud.cloudwatch.is_responsive(self.nodes[node_id].host)
        ]
        if not candidates:
            raise BootstrapUnavailableError(
                "bootstrap leader is down and no standby is reachable"
            )
        standby = self.nodes[candidates[0]]
        lease = standby.leadership.acquire()
        deposed = self.leader_id
        self.leader_id = standby.node_id
        self.promotions += 1
        if self.metrics is not None:
            self.metrics.record_event(
                self.clock.now,
                f"promotion: {deposed} -> {standby.node_id} "
                f"(epoch {lease.epoch})",
            )
        return blocked

    # ------------------------------------------------------------------
    # Log shipping
    # ------------------------------------------------------------------
    def replication_lag(self) -> Dict[str, int]:
        """Entries each non-leader node is behind the leader's log."""
        leader_len = len(self.leader.log)
        return {
            node_id: leader_len - len(self.nodes[node_id].log)
            for node_id in sorted(self.nodes)
            if node_id != self.leader_id
        }

    def _replicate_entry(self, entry: metalog.LogEntry) -> None:
        for node_id in sorted(self.nodes):
            if node_id == self.leader_id:
                continue
            leader = self.nodes[self.leader_id]
            follower = self.nodes[node_id]
            self._backlog.setdefault(node_id, []).append(entry)
            self._flush(leader, follower)
            if self._backlog[node_id] and self.cloud.cloudwatch.is_responsive(
                follower.host
            ):
                # The follower looks healthy to everyone else, yet this
                # node cannot reach it: the leader is the isolated one.
                # Refuse the commit rather than acknowledge a mutation a
                # promotion could lose.
                raise BootstrapUnavailableError(
                    f"leader {self.leader_id!r} cannot replicate to live "
                    f"standby {node_id!r}"
                )

    def _flush(self, leader: BootstrapPeer, follower: BootstrapPeer) -> None:
        pending = self._backlog.get(follower.node_id, [])
        while pending:
            entry = pending[0]
            try:
                self._priced_send(
                    leader.host,
                    follower.host,
                    entry.nbytes(self.lease_config.entry_base_bytes),
                )
            except NetworkError:
                return  # follower unreachable; keep the backlog
            try:
                follower.receive_entry(entry)
            except BestPeerError:
                # Index gap (the follower missed earlier entries and its
                # backlog was cleared by a resync race): full resync.
                self._resync(leader, follower)
                return
            pending.pop(0)

    def _resync(self, leader: BootstrapPeer, follower: BootstrapPeer) -> None:
        entries = leader.log.entries_since(0)
        base = self.lease_config.entry_base_bytes
        nbytes = sum(entry.nbytes(base) for entry in entries)
        try:
            self._priced_send(leader.host, follower.host, max(1, nbytes))
        except NetworkError:
            # Follower unreachable mid-resync: leave its log and the
            # backlog untouched.  The next flush hits the index gap again
            # and retries the resync; _replicate_entry still refuses the
            # commit if the follower looks live to everyone else.
            return
        follower.rebuild(entries)
        self._backlog[follower.node_id] = []

    # ------------------------------------------------------------------
    # The single priced transfer site (RES004: routed via resilience)
    # ------------------------------------------------------------------
    def _priced_send(self, src: str, dst: str, nbytes: int) -> float:
        self._send_src = src
        self._send_dst = dst
        self._send_bytes = nbytes
        if self.resilience is not None:
            return self.resilience.call(dst, self._send)
        return self._send()

    def _send(self) -> float:
        return self.network.transfer(
            self._send_src, self._send_dst, self._send_bytes
        )
