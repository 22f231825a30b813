"""Shared execution context and result types for the query engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.config import BestPeerConfig
from repro.core.indexer import DataIndexer
from repro.core.peer import NormalPeer
from repro.core.resilience import ResilienceContext
from repro.errors import BestPeerError
from repro.hadoopdb.sms import SmsPlanner
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

    def ensure_peer_available(self, peer_id: str) -> bool:
        """Recover a crashed peer before fanning a query out to it."""
        if self.resilience is None:
            return False
        return self.resilience.ensure_available(peer_id)


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
    engine_details: Dict[str, float] = field(default_factory=dict)

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
