"""Chaos-equivalence harness: prove faults change cost, never answers.

The robustness claim worth testing is not "queries succeed under faults"
but "queries return *exactly the same rows* under faults".  This module
runs the same workload twice — once fault-free, once under a seeded
:class:`~repro.sim.failure.FaultPlan` — on freshly built, identically
seeded deployments and compares row sets query by query.  Latency is
allowed (expected!) to differ; results are not.

The harness is deliberately decoupled from the core facade: it drives any
object with the ``BestPeerNetwork`` surface (``execute``,
``install_fault_plan``, ``metrics``, ``network``), supplied by a factory so
every run starts from the same deterministic initial state.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ChaosEquivalenceError, MigrationCensusError
from repro.sim.failure import FaultPlan
from repro.sim.network import FaultStats

if TYPE_CHECKING:
    from repro.core.metrics import FaultCounters


def _sort_key(row: tuple) -> tuple:
    """Total order over heterogeneous rows (None-safe)."""
    return tuple((value is None, str(type(value)), value if value is not None else 0)
                 for value in row)


@dataclass
class QueryOutcome:
    """One query's answer under one run, rows canonically sorted."""

    sql: str
    columns: List[str]
    rows: List[tuple]
    latency_s: float
    strategy: str


@dataclass
class ChaosRun:
    """One workload pass plus the fault tolerance it consumed.

    ``faults`` and ``wire`` are end-of-run snapshots of the network's
    fault counters (retries, fail-overs) and of the wire faults that
    caused them (drops, timeouts, rejections, crashes).
    """

    plan_seed: Optional[int]
    faults: FaultCounters
    wire: FaultStats
    outcomes: List[QueryOutcome] = field(default_factory=list)
    total_blocked_s: float = 0.0
    bytes_transferred: int = 0
    # Bootstrap HA observability (defaults when the driven network has no
    # ``bootstrap_cluster`` — the harness stays duck-typed).
    leader_id: Optional[str] = None
    leader_epoch: int = 0
    promotions: int = 0
    log_fingerprint: Tuple = ()
    admitted_peers: Tuple[str, ...] = ()
    leader_transitions: Tuple = ()

    def row_sets(self) -> List[List[tuple]]:
        return [outcome.rows for outcome in self.outcomes]

    def fingerprint(self) -> Tuple:
        """A hashable digest of answers *and* fault accounting.

        Two runs of the same plan on the same workload must produce equal
        fingerprints — this is the determinism contract a seeded FaultPlan
        offers.  Bootstrap leadership history (who led which epoch, what
        the authoritative log holds) is part of the digest: promotion and
        fencing must be as reproducible as the answers themselves.
        """
        return (
            tuple(
                (outcome.sql, tuple(outcome.columns), tuple(outcome.rows))
                for outcome in self.outcomes
            ),
            astuple(self.faults),
            astuple(self.wire),
            self.leader_id,
            self.leader_epoch,
            self.promotions,
            self.log_fingerprint,
            self.admitted_peers,
            self.leader_transitions,
        )


def _authoritative_entries(cluster) -> list:
    """The current leader's log — the only history that counts.

    A fenced ex-leader may hold an orphan entry it committed but never got
    acknowledged (its crash refused the ack); that entry legitimately
    exists in a log that will never be authoritative again, so membership
    invariants are checked against the leader's log only.  Serial
    uniqueness, by contrast, must hold across *every* node's log — a
    duplicate serial anywhere means fencing failed.
    """
    return list(cluster.leader.log.entries)


def verify_bootstrap_invariants(network) -> None:
    """Check the HA safety contract after a (possibly chaotic) run.

    Raises :class:`ChaosEquivalenceError` on the first violation:

    * the authoritative log is contiguous (1..n) with non-decreasing
      epochs,
    * exactly one leader per epoch (lease transitions carry strictly
      increasing, unique epochs),
    * no certificate serial is issued twice — in the authoritative log
      *and* across the union of every node's log,
    * no peer is admitted under two epochs in the authoritative log, and
    * the admitted-peer set never silently shrinks: the membership the
      authoritative log *implies* (admissions, fail-over rebinds,
      departures — recomputed here independently of the reducer) matches
      the leader's live state exactly.

    Record kinds are recognized by their stable ``describe()`` prefixes,
    so this layer needs no import of ``repro.core`` (the sim substrate
    stays below the core in the layering).  No-op for networks without a
    ``bootstrap_cluster``.
    """
    cluster = getattr(network, "bootstrap_cluster", None)
    if cluster is None:
        return
    entries = _authoritative_entries(cluster)
    previous_epoch = 0
    for position, entry in enumerate(entries, start=1):
        if entry.index != position:
            raise ChaosEquivalenceError(
                f"authoritative log has a gap: entry {position} carries "
                f"index {entry.index}"
            )
        if entry.epoch < previous_epoch:
            raise ChaosEquivalenceError(
                f"authoritative log epoch regressed at index {entry.index}: "
                f"{previous_epoch} -> {entry.epoch}"
            )
        previous_epoch = entry.epoch

    # Exactly one leader per epoch: each lease transition mints a fresh,
    # strictly larger epoch for exactly one holder.
    transitions = list(cluster.service.transitions)
    seen_epochs = set()
    last_epoch = 0
    for epoch, holder, _acquired_at in transitions:
        if epoch in seen_epochs:
            raise ChaosEquivalenceError(
                f"epoch {epoch} was acquired twice (second holder "
                f"{holder!r}): split-brain"
            )
        if epoch <= last_epoch:
            raise ChaosEquivalenceError(
                f"lease epochs must be strictly increasing: "
                f"{last_epoch} then {epoch}"
            )
        seen_epochs.add(epoch)
        last_epoch = epoch

    # Serial and single-admission invariants on the authoritative log,
    # plus the membership the log implies (recomputed independently of
    # the reducer — this is a cross-check, not a second replay).
    admissions: Dict[str, int] = {}
    serial_owner: Dict[int, str] = {}
    expected_members: Dict[str, str] = {}  # peer -> current instance
    departed = set()
    for entry in entries:
        record = entry.record
        kind = record.describe().split(":", 1)[0]
        if kind == "admit":
            if record.peer_id in admissions:
                raise ChaosEquivalenceError(
                    f"peer {record.peer_id!r} admitted under epochs "
                    f"{admissions[record.peer_id]} and {entry.epoch}"
                )
            admissions[record.peer_id] = entry.epoch
            serial = record.certificate.serial
            if serial in serial_owner:
                raise ChaosEquivalenceError(
                    f"serial {serial} issued to both "
                    f"{serial_owner[serial]!r} and {record.peer_id!r}"
                )
            serial_owner[serial] = record.peer_id
            expected_members[record.peer_id] = record.instance_id
        elif kind == "failover-done":
            expected_members[record.peer_id] = record.new_instance_id
        elif kind == "depart":
            departed.add(record.peer_id)
            expected_members.pop(record.peer_id, None)

    # Serial uniqueness across the union of every node's log: replicated
    # copies of the same admission agree byte-for-byte; two *different*
    # admissions sharing a serial mean epoch striding (fencing) failed.
    union_serials: Dict[int, str] = {}
    for node_id in sorted(cluster.nodes):
        for entry in cluster.nodes[node_id].log.entries:
            record = entry.record
            if not record.describe().startswith("admit:"):
                continue
            serial = record.certificate.serial
            seen = union_serials.get(serial)
            if seen is not None and seen != record.describe():
                raise ChaosEquivalenceError(
                    f"serial {serial} names two different admissions "
                    f"across node logs: {seen!r} vs {record.describe()!r}"
                )
            union_serials[serial] = record.describe()

    # The admitted set never silently shrinks: the log-implied membership
    # matches the leader's live state, and every admission is still a
    # member unless an explicit departure record exists.
    live_peers = cluster.leader.state.peers
    if sorted(expected_members) != sorted(live_peers):
        raise ChaosEquivalenceError(
            f"the authoritative log implies members "
            f"{sorted(expected_members)} but the leader holds "
            f"{sorted(live_peers)}"
        )
    for peer_id in sorted(expected_members):
        if expected_members[peer_id] != live_peers[peer_id].instance_id:
            raise ChaosEquivalenceError(
                f"peer {peer_id!r} diverged from the log: instance "
                f"{expected_members[peer_id]!r} implied vs "
                f"{live_peers[peer_id].instance_id!r} live"
            )
    for peer_id in sorted(admissions):
        if peer_id not in live_peers and peer_id not in departed:
            raise ChaosEquivalenceError(
                f"peer {peer_id!r} was admitted but vanished without a "
                f"departure record"
            )


@dataclass
class OverlayChaosReport:
    """What one scripted overlay scenario did, and what it proved.

    ``search_hops``, ``search_served`` and ``search_queue_depths`` hold,
    for every search in script order, its routing-hop count, the node
    that served it, and how many earlier searches that node had served
    since the last rebalance — a queue-depth proxy for the latency a
    request sees behind a hot node's backlog (the bench layer turns
    ``hops + depth`` into p50/p99).  ``ratio_samples`` holds the max/mean
    load ratio observed after each rebalance.
    """

    operations: int = 0
    inserts: int = 0
    deletes: int = 0
    searches: int = 0
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    restores: int = 0
    rebalances: int = 0
    migrations: int = 0
    entries_moved: int = 0
    census_checks: int = 0
    fanout_reads: int = 0
    failover_reads: int = 0
    search_hops: List[int] = field(default_factory=list)
    search_served: List[str] = field(default_factory=list)
    search_queue_depths: List[int] = field(default_factory=list)
    ratio_samples: List[float] = field(default_factory=list)

    def search_latencies(self) -> List[float]:
        """Per-search latency proxy: routing hops + serving-node backlog."""
        return [
            float(hops + depth)
            for hops, depth in zip(self.search_hops, self.search_queue_depths)
        ]

    @property
    def peak_ratio(self) -> float:
        return max(self.ratio_samples) if self.ratio_samples else 1.0

    @property
    def final_ratio(self) -> float:
        return self.ratio_samples[-1] if self.ratio_samples else 1.0


class OverlayChaosHarness:
    """Drives skew / flash-crowd / churn scripts against an overlay.

    Like :class:`ChaosHarness`, this is duck-typed so the sim layer never
    imports ``repro.baton``: ``overlay_factory`` builds any object with
    the replicated-overlay surface (``insert``/``delete``/``search``/
    ``join``/``leave``/``mark_offline``/``mark_online``/``census``/
    ``check_invariants``), and the optional ``balancer_factory`` wraps it
    with a ``rebalance()`` driver (``repro.baton.loadbalance.LoadBalancer``
    in practice).

    The harness maintains its *own* expected key-space census — counts
    updated only by the inserts and deletes it issues — and after every
    ``check_every`` operations asserts the overlay's census matches it
    exactly.  Join, leave, crash and migration therefore cannot lose or
    duplicate an index entry without the scenario failing, which is the
    invariant every chaos scenario is gated on.
    """

    #: Script opcodes the interpreter understands.
    OPS = (
        "insert", "delete", "search", "join", "leave",
        "crash", "restore", "rebalance",
    )

    def __init__(
        self,
        overlay_factory: Callable[[], object],
        balancer_factory: Optional[Callable[[object], object]] = None,
        check_every: int = 1,
    ) -> None:
        if check_every < 1:
            raise ChaosEquivalenceError(
                f"check_every must be positive: {check_every}"
            )
        self.overlay_factory = overlay_factory
        self.balancer_factory = balancer_factory
        self.check_every = check_every

    def run(self, script: Sequence[tuple]) -> OverlayChaosReport:
        """Interpret one script on a fresh overlay; census-gate throughout.

        Script steps are tuples: ``("insert", key, value)``,
        ``("delete", key, value)``, ``("search", key[, start_id])``,
        ``("join", node_id)``, ``("leave", node_id)``,
        ``("crash", node_id)``, ``("restore", node_id)`` and
        ``("rebalance",)``.  Raises
        :class:`~repro.errors.MigrationCensusError` when the overlay's
        stored entries diverge from the harness's independent census.
        """
        if not script:
            raise ChaosEquivalenceError("an overlay scenario needs steps")
        overlay = self.overlay_factory()
        balancer = (
            self.balancer_factory(overlay)
            if self.balancer_factory is not None
            else None
        )
        report = OverlayChaosReport()
        expected: Dict[float, int] = {}
        serve_counts: Dict[str, int] = {}
        for step in script:
            op = step[0]
            if op == "insert":
                _, key, value = step
                overlay.insert(key, value)
                expected[key] = expected.get(key, 0) + 1
                report.inserts += 1
            elif op == "delete":
                _, key, value = step
                overlay.delete(key, value)
                remaining = expected.get(key, 0) - 1
                if remaining > 0:
                    expected[key] = remaining
                else:
                    expected.pop(key, None)
                report.deletes += 1
            elif op == "search":
                result = (
                    overlay.search(step[1], start_id=step[2])
                    if len(step) > 2
                    else overlay.search(step[1])
                )
                report.searches += 1
                report.search_hops.append(result.hops)
                served = result.node_ids[0] if result.node_ids else ""
                depth = serve_counts.get(served, 0)
                report.search_served.append(served)
                report.search_queue_depths.append(depth)
                serve_counts[served] = depth + 1
            elif op == "join":
                overlay.join(step[1])
                report.joins += 1
            elif op == "leave":
                overlay.leave(step[1])
                report.leaves += 1
            elif op == "crash":
                overlay.mark_offline(step[1])
                report.crashes += 1
            elif op == "restore":
                overlay.mark_online(step[1])
                report.restores += 1
            elif op == "rebalance":
                if balancer is None:
                    raise ChaosEquivalenceError(
                        "script rebalances but no balancer_factory was given"
                    )
                round_report = balancer.rebalance()
                report.rebalances += 1
                report.migrations += round_report.migrations
                report.entries_moved += round_report.entries_moved
                report.ratio_samples.append(round_report.ratio_after)
                # The balancer decayed every node's load window; the
                # serving backlog drains with it.
                serve_counts.clear()
            else:
                raise ChaosEquivalenceError(f"unknown overlay op: {op!r}")
            report.operations += 1
            if report.operations % self.check_every == 0:
                self._verify_census(overlay, expected)
                report.census_checks += 1
        self._verify_census(overlay, expected)
        report.census_checks += 1
        report.fanout_reads = getattr(overlay, "fanout_reads", 0)
        report.failover_reads = getattr(overlay, "failover_reads", 0)
        return report

    @staticmethod
    def _verify_census(overlay, expected: Dict[float, int]) -> None:
        """The overlay must hold exactly what the script put into it."""
        actual = overlay.census()
        if actual != expected:
            lost = sorted(
                key for key in expected
                if actual.get(key, 0) < expected[key]
            )
            gained = sorted(
                key for key in actual
                if actual[key] > expected.get(key, 0)
            )
            raise MigrationCensusError(
                f"overlay census diverged from the script's: "
                f"{len(lost)} key(s) lost entries {lost[:5]}, "
                f"{len(gained)} key(s) gained entries {gained[:5]}"
            )
        overlay.check_invariants(expected_census=expected)


class ChaosHarness:
    """Runs a fixed workload under different fault plans and compares."""

    def __init__(
        self,
        network_factory: Callable[[], object],
        queries: Sequence[str],
        engine: str = "basic",
        peer_id: Optional[str] = None,
        user: Optional[str] = None,
    ) -> None:
        if not queries:
            raise ChaosEquivalenceError("a chaos workload needs queries")
        self.network_factory = network_factory
        self.queries = list(queries)
        self.engine = engine
        self.peer_id = peer_id
        self.user = user

    def run(self, plan: Optional[FaultPlan] = None) -> ChaosRun:
        """One pass of the workload on a fresh deployment."""
        network = self.network_factory()
        if plan is not None:
            network.install_fault_plan(plan)
        outcomes: List[QueryOutcome] = []
        bytes_transferred = 0
        for sql in self.queries:
            execution = network.execute(
                sql, peer_id=self.peer_id, engine=self.engine, user=self.user
            )
            outcomes.append(
                QueryOutcome(
                    sql=sql,
                    columns=list(execution.columns),
                    rows=sorted(execution.records, key=_sort_key),
                    latency_s=execution.latency_s,
                    strategy=execution.strategy,
                )
            )
            bytes_transferred += execution.bytes_transferred
        run = ChaosRun(
            plan_seed=None if plan is None else plan.seed,
            faults=replace(network.metrics.faults),
            wire=replace(network.network.fault_stats),
            outcomes=outcomes,
            total_blocked_s=network.total_blocked_s,
            bytes_transferred=bytes_transferred,
        )
        cluster = getattr(network, "bootstrap_cluster", None)
        if cluster is not None:
            run.leader_id = cluster.leader_id
            run.leader_epoch = cluster.epoch
            run.promotions = cluster.promotions
            run.log_fingerprint = cluster.leader.log.fingerprint()
            run.admitted_peers = tuple(cluster.leader.peer_list())
            run.leader_transitions = tuple(cluster.service.transitions)
            verify_bootstrap_invariants(network)
        return run

    def verify_equivalence(
        self, plans: Dict[str, FaultPlan]
    ) -> Dict[str, ChaosRun]:
        """Run fault-free once, then every plan; answers must match.

        Returns ``{"baseline": ..., <plan name>: ...}`` for inspection.
        Raises :class:`ChaosEquivalenceError` on the first divergent row
        set, naming the plan and query.
        """
        baseline = self.run(None)
        runs: Dict[str, ChaosRun] = {"baseline": baseline}
        for name, plan in plans.items():
            chaotic = self.run(plan)
            runs[name] = chaotic
            for base, chaos in zip(baseline.outcomes, chaotic.outcomes):
                if base.columns != chaos.columns or base.rows != chaos.rows:
                    raise ChaosEquivalenceError(
                        f"plan {name!r} changed the answer of {base.sql!r}: "
                        f"{len(base.rows)} baseline rows vs "
                        f"{len(chaos.rows)} under chaos"
                    )
        return runs
