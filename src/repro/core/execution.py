"""Shared execution context and result types for the query engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.config import BestPeerConfig
from repro.core.indexer import DataIndexer
from repro.core.peer import NormalPeer
from repro.core.resilience import ResilienceContext
from repro.errors import BestPeerError, PeerUnavailableError
from repro.plan.sms import SmsPlanner
from repro.sim.compute import ComputeModel
from repro.sim.network import SimNetwork
from repro.sqlengine.schema import TableSchema


@dataclass
class EngineContext:
    """Everything an engine needs to evaluate a query from one peer."""

    query_peer: NormalPeer
    peers: Dict[str, NormalPeer]
    indexer: DataIndexer
    network: SimNetwork
    schemas: Dict[str, TableSchema]
    config: BestPeerConfig
    compute_model: ComputeModel
    planner: SmsPlanner  # the network's: ``compile_text`` is the compile door
    resilience: Optional[ResilienceContext] = None

    def peer(self, peer_id: str) -> NormalPeer:
        peer = self.peers.get(peer_id)
        if peer is None:
            raise BestPeerError(f"unknown peer: {peer_id!r}")
        return peer

    def hop_cost_s(self, hops: int) -> float:
        """Network cost of BATON routing hops (one message per hop)."""
        config = self.network.config
        return hops * (config.latency_s + config.per_message_overhead_s)

    def call_resilient(self, peer_id: str, fn: Callable[[], object]) -> object:
        """Run a per-peer operation under the retry/breaker/fail-over layer.

        Without a resilience context (engines constructed standalone) the
        operation runs bare, preserving the original fail-fast behaviour.
        """
        if self.resilience is None:
            return fn()
        return self.resilience.call(peer_id, fn)

    def require_online(self, peer_ids: Iterable[str]) -> None:
        """Recover crashed data owners before fanning the query out (§3.2).

        With a resilience context installed the recovery happens here, at
        sub-query granularity; without one the historical behaviour stands:
        raise and let the facade block on fail-over, then retry the query.
        Peers are taken in the caller's order — recoveries advance the
        simulated clock, so each engine keeps its own.
        """
        for peer_id in peer_ids:
            peer = self.peers.get(peer_id)
            if peer is None or not peer.online:
                if self.resilience is None or not (
                    self.resilience.ensure_available(peer_id)
                ):
                    raise PeerUnavailableError(peer_id)


@dataclass
class QueryExecution:
    """The result of one distributed query plus its cost breakdown."""

    columns: List[str]
    records: List[tuple]
    latency_s: float
    strategy: str  # "single-peer" | "fetch-and-process" | "parallel-p2p" | "mapreduce"
    bytes_transferred: int = 0
    peers_contacted: int = 0
    index_hops: int = 0
    bloom_joins: int = 0
    memtable_spills: int = 0
    dollar_cost: float = 0.0
    # Simulated seconds the facade added to ``latency_s``: blocked on a
    # peer's fail-over, and backing off before resubmitting the query.
    blocked_on_failover_s: float = 0.0
    retry_backoff_s: float = 0.0

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> List[object]:
        lowered = name.lower()
        try:
            position = self.columns.index(lowered)
        except ValueError:
            raise BestPeerError(f"no output column {name!r}") from None
        return [row[position] for row in self.records]

    def scalar(self) -> object:
        if len(self.records) != 1 or len(self.records[0]) != 1:
            raise BestPeerError(
                f"scalar() needs a 1x1 result, got {len(self.records)} rows"
            )
        return self.records[0][0]


def prepare_once(sql: str) -> Callable[[NormalPeer], object]:
    """``owner -> prepared plan`` for a subquery that goes to every owner.

    Prepared (parse + plan) at the first owner asked and shipped to the
    rest — all peers share the global schema by construction (§4.1).  The
    first call raises whatever preparing ``sql`` there raises, and a later
    owner then prepares it afresh.
    """
    prepared: List[object] = []

    def prepared_at(owner: NormalPeer) -> object:
        if not prepared:
            prepared.append(owner.prepare_fetch(sql))
        return prepared[0]

    return prepared_at


def makespan(durations: List[float], workers: int) -> float:
    """Completion time of tasks spread over ``workers`` parallel slots.

    Longest-processing-time-first greedy assignment; models the peer's pool
    of concurrent fetch threads (§6.1.2: 20 threads).
    """
    if workers < 1:
        raise BestPeerError(f"need at least one worker: {workers}")
    if not durations:
        return 0.0
    slots = [0.0] * min(workers, len(durations))
    for duration in sorted(durations, reverse=True):
        slots[slots.index(min(slots))] += duration
    return max(slots)
