"""Simulated data-center network.

The paper measured ~100 MB/s end-to-end bandwidth between EC2 small instances
(`iperf`, Section 6.1.1).  We model each point-to-point transfer as

    duration = latency + message_count * per_message_overhead + bytes / bandwidth

and keep a network-wide total so benchmarks can report bytes shipped
(the quantity the bloom-join optimization reduces).

Hosts are plain string identifiers.  The network supports partitions
(cutting a host off entirely) which the fail-over tests use to simulate
crashed instances that stop responding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set

from repro.errors import NetworkError, RpcTimeoutError, TransientNetworkError


@dataclass(frozen=True)
class NetworkConfig:
    """Tunable parameters of the simulated network.

    Defaults approximate the environment in Section 6.1.1 of the paper:
    100 MB/s end-to-end bandwidth and sub-millisecond in-region latency.
    """

    latency_s: float = 0.0005
    bandwidth_bytes_per_s: float = 100e6
    per_message_overhead_s: float = 0.0001
    loopback_bandwidth_bytes_per_s: float = 2e9

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise NetworkError("latency must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise NetworkError("bandwidth must be positive")
        if self.per_message_overhead_s < 0:
            raise NetworkError("per-message overhead must be non-negative")
        if self.loopback_bandwidth_bytes_per_s <= 0:
            raise NetworkError("loopback bandwidth must be positive")


@dataclass
class TransferStats:
    """Aggregated transfer counters, exposed for benchmark reporting."""

    messages: int = 0
    bytes: int = 0


@dataclass
class FaultStats:
    """Counters of injected message-level faults (chaos observability)."""

    dropped_messages: int = 0
    timeouts: int = 0
    transient_rejections: int = 0
    injected_crashes: int = 0
    partition_rejections: int = 0

    @property
    def total(self) -> int:
        return (
            self.dropped_messages
            + self.timeouts
            + self.transient_rejections
            + self.injected_crashes
            + self.partition_rejections
        )


class SimNetwork:
    """A fully connected network of named hosts with cost accounting.

    The network does not queue or deliver payloads itself — the in-process
    components call each other directly — it *prices* each transfer and
    tracks statistics.  This keeps the simulation simple while still making
    network cost a first-class, measurable quantity.
    """

    def __init__(self, config: NetworkConfig | None = None) -> None:
        self.config = config or NetworkConfig()
        self._hosts: Set[str] = set()
        self._partitioned: Set[str] = set()
        self.total = TransferStats()
        # Message-level fault injection (installed by the chaos layer).
        self.fault_plan = None
        self.fault_stats = FaultStats()
        self._on_crash: Optional[Callable[[str], None]] = None
        self._transfer_ordinal = 0
        self._completed_transfers = 0

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_fault_plan(
        self, plan, on_crash: Optional[Callable[[str], None]] = None
    ) -> None:
        """Install a :class:`~repro.sim.failure.FaultPlan` (or ``None``).

        ``on_crash`` is invoked with a host id when the plan schedules a
        crash after the Nth successful transfer; the owner of the network
        (e.g. the BestPeer++ facade) maps the host to an instance crash.
        """
        self.fault_plan = plan
        self._on_crash = on_crash
        self._transfer_ordinal = 0
        self._completed_transfers = 0
        if plan is not None:
            plan.reset()

    def is_unreachable(self, host: str) -> bool:
        """Whether ``host`` is inside a transient outage window right now.

        Distinct from :meth:`is_partitioned`: an outage clears on its own,
        so failure detectors should *suspect*, not immediately fail over.
        """
        return self.fault_plan is not None and self.fault_plan.is_unreachable(
            host, self._transfer_ordinal
        )

    # ------------------------------------------------------------------
    # Host management
    # ------------------------------------------------------------------
    def add_host(self, host: str) -> None:
        """Register a host; registering twice is an error (likely a bug)."""
        if host in self._hosts:
            raise NetworkError(f"host already registered: {host!r}")
        self._hosts.add(host)

    def remove_host(self, host: str) -> None:
        self._require_host(host)
        self._hosts.discard(host)
        self._partitioned.discard(host)

    def has_host(self, host: str) -> bool:
        return host in self._hosts

    @property
    def hosts(self) -> Set[str]:
        return set(self._hosts)

    # ------------------------------------------------------------------
    # Partitions (used by failure injection)
    # ------------------------------------------------------------------
    def partition(self, host: str) -> None:
        """Cut ``host`` off: all transfers to/from it fail until healed."""
        self._require_host(host)
        self._partitioned.add(host)

    def heal(self, host: str) -> None:
        self._require_host(host)
        self._partitioned.discard(host)

    def is_partitioned(self, host: str) -> bool:
        return host in self._partitioned

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: int, messages: int = 1) -> float:
        """Price a transfer of ``nbytes`` from ``src`` to ``dst``.

        Returns the simulated duration in seconds and records statistics.
        A transfer where ``src == dst`` is a loopback: no latency, and the
        much higher local-bus bandwidth applies.
        """
        self._require_host(src)
        self._require_host(dst)
        if nbytes < 0:
            raise NetworkError(f"cannot transfer a negative byte count: {nbytes}")
        if messages < 1:
            raise NetworkError(f"a transfer needs at least one message: {messages}")
        if src in self._partitioned or dst in self._partitioned:
            unreachable = src if src in self._partitioned else dst
            raise NetworkError(f"host is partitioned: {unreachable!r}")

        if src == dst:
            # Loopback never leaves the machine: immune to injected faults.
            duration = nbytes / self.config.loopback_bandwidth_bytes_per_s
            self._record(nbytes, messages)
            return duration

        duration = (
            self.config.latency_s
            + messages * self.config.per_message_overhead_s
            + nbytes / self.config.bandwidth_bytes_per_s
        )
        plan = self.fault_plan
        if plan is not None:
            self._transfer_ordinal += 1
            if plan.severed(src, dst, self._transfer_ordinal):
                # The delivery straddles an active bipartition: refused in
                # both directions, nothing was put on the wire.
                self.fault_stats.partition_rejections += 1
                raise TransientNetworkError(
                    f"link {src!r} -> {dst!r} crosses a network partition"
                )
            unavailable = plan.unavailable_host(src, dst, self._transfer_ordinal)
            if unavailable is not None:
                # Connection refused: nothing was put on the wire.
                self.fault_stats.transient_rejections += 1
                raise TransientNetworkError(
                    f"host {unavailable!r} is transiently unavailable"
                )
            duration = plan.degrade(src, dst, duration)
            if plan.should_drop(src, dst):
                # The payload was transmitted and lost: the traffic counts.
                self.fault_stats.dropped_messages += 1
                self._record(nbytes, messages)
                raise TransientNetworkError(
                    f"message dropped on link {src!r} -> {dst!r}"
                )
            if plan.timeout_s is not None and duration > plan.timeout_s:
                self.fault_stats.timeouts += 1
                self._record(nbytes, messages)
                raise RpcTimeoutError(
                    f"delivery {src!r} -> {dst!r} took {duration:.3f}s, "
                    f"over the {plan.timeout_s:.3f}s timeout"
                )

        self._record(nbytes, messages)
        if plan is not None:
            self._completed_transfers += 1
            for host in plan.crashes_due(self._completed_transfers):
                self.fault_stats.injected_crashes += 1
                if self._on_crash is not None:
                    self._on_crash(host)
        return duration

    def broadcast(self, src: str, dsts: list, nbytes: int) -> float:
        """Price sending the same payload from ``src`` to every host in ``dsts``.

        The sends happen concurrently, so the duration is the max of the
        individual transfers (they are identical here, but partitioned
        receivers still raise).
        """
        longest = 0.0
        for dst in dsts:
            longest = max(longest, self.transfer(src, dst, nbytes))
        return longest

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.total = TransferStats()
        self.fault_stats = FaultStats()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_host(self, host: str) -> None:
        if host not in self._hosts:
            raise NetworkError(f"unknown host: {host!r}")

    def _record(self, nbytes: int, messages: int) -> None:
        self.total.messages += messages
        self.total.bytes += nbytes
