"""Network-wide query metrics.

Production data platforms expose operational metrics; BestPeer++'s
statistics module already collects per-query measurements for the cost
model's feedback loop (§5.5), so this module gives them a queryable surface:
per-engine counters, latency summaries, byte/price totals and a fixed-bucket
latency histogram.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Sequence, Tuple

from repro.errors import BestPeerError

# Latency histogram bucket upper bounds (seconds); the last is open-ended.
DEFAULT_BUCKETS = (0.01, 0.1, 1.0, 10.0, 60.0, 600.0)

# How many operational events (fail-overs, promotions) the registry keeps.
EVENT_CAPACITY = 64


@dataclass
class EngineMetrics:
    """Aggregated measurements for one engine."""

    queries: int = 0
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    total_bytes: int = 0
    total_dollars: float = 0.0
    rows_returned: int = 0

    @property
    def mean_latency_s(self) -> float:
        return self.total_latency_s / self.queries if self.queries else 0.0


@dataclass
class FaultCounters:
    """Fault-tolerance counters (retry/fail-over observability).

    ``retries``/``circuit_opens``/``failovers`` are incremented by the
    resilience layer and the network facade;
    ``blacklist_release_skips`` counts blacklisted instances the
    maintenance daemon could not release because the cloud no longer
    knew them.  The wire faults that caused the retries are the
    simulated network's own :class:`~repro.sim.network.FaultStats`.
    """

    retries: int = 0
    circuit_opens: int = 0
    failovers: int = 0
    blacklist_release_skips: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "circuit_opens": self.circuit_opens,
            "failovers": self.failovers,
            "blacklist_release_skips": self.blacklist_release_skips,
        }

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())


#: Default cap on per-(tenant, lane) latency samples kept for percentiles.
#: Mirrored by ServingConfig.latency_sample_cap; the registry needs its own
#: default because lane stats can be created before any front door exists.
SAMPLE_CAPACITY = 512


class BoundedSamples:
    """A sliding window of measurements with exact percentiles.

    Keeps the most recent ``capacity`` values (older ones roll off), so
    memory stays bounded no matter how many requests the front door serves,
    as the serving queues themselves are.
    """

    def __init__(self, capacity: int = SAMPLE_CAPACITY) -> None:
        if capacity < 1:
            raise BestPeerError(f"sample capacity must be positive: {capacity}")
        self.capacity = capacity
        self._window: Deque[float] = deque(maxlen=capacity)
        self.count = 0  # all-time observations, not just the window

    def record(self, value: float) -> None:
        self._window.append(value)
        self.count += 1

    def __len__(self) -> int:
        return len(self._window)

    @property
    def mean(self) -> float:
        if not self._window:
            return 0.0
        return sum(self._window) / len(self._window)

    def percentile(self, fraction: float) -> float:
        """Exact percentile over the retained window (0 when empty)."""
        if not 0 < fraction <= 1:
            raise BestPeerError(f"fraction must be in (0, 1]: {fraction}")
        if not self._window:
            return 0.0
        ordered = sorted(self._window)
        rank = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[rank]


@dataclass
class LaneServingStats:
    """Per-(tenant, lane) SLO accounting for the serving front door.

    Every offered request lands in exactly one of ``admitted``,
    ``shed_queue_full``, ``shed_backpressure`` or ``deadline_missed``
    (deadline-missed covers both admission-time-unmeetable rejections and
    requests whose deadline expired while queued); every admitted request
    ends as ``completed`` or ``failed`` — nothing is silently lost.
    """

    offered: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed_queue_full: int = 0
    shed_backpressure: int = 0
    deadline_missed: int = 0
    queue_wait: BoundedSamples = field(default_factory=BoundedSamples)
    e2e_latency: BoundedSamples = field(default_factory=BoundedSamples)

    @property
    def shed(self) -> int:
        """Requests rejected at admission for load reasons."""
        return self.shed_queue_full + self.shed_backpressure

    def as_dict(self) -> Dict[str, float]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "shed_queue_full": self.shed_queue_full,
            "shed_backpressure": self.shed_backpressure,
            "deadline_missed": self.deadline_missed,
            "queue_wait_p50_s": self.queue_wait.percentile(0.50),
            "queue_wait_p99_s": self.queue_wait.percentile(0.99),
            "latency_p50_s": self.e2e_latency.percentile(0.50),
            "latency_p99_s": self.e2e_latency.percentile(0.99),
        }


class MetricsRegistry:
    """Collects per-query measurements, grouped by engine/strategy."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise BestPeerError("histogram buckets must be strictly increasing")
        self.buckets = tuple(buckets)
        self._engines: Dict[str, EngineMetrics] = {}
        self._histogram: List[int] = [0] * (len(self.buckets) + 1)
        self.faults = FaultCounters()
        # Bounded operational event feed: (simulated time, description),
        # oldest first.  Fed by the facade (fail-overs) and the bootstrap
        # cluster (promotions); read by the console's ``bootstrap status``.
        self.events: List[Tuple[float, str]] = []
        # Serving front-door SLO accounting, keyed (tenant, lane); written
        # by repro.serving, read by the console's ``serving status``.
        self.serving: Dict[Tuple[str, str], LaneServingStats] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, execution) -> None:
        """Fold in one :class:`~repro.core.execution.QueryExecution`."""
        metrics = self._engines.setdefault(execution.strategy, EngineMetrics())
        metrics.queries += 1
        metrics.total_latency_s += execution.latency_s
        metrics.max_latency_s = max(metrics.max_latency_s, execution.latency_s)
        metrics.total_bytes += execution.bytes_transferred
        metrics.total_dollars += execution.dollar_cost
        metrics.rows_returned += len(execution.records)
        self._histogram[self._bucket_of(execution.latency_s)] += 1

    def record_event(self, now: float, description: str) -> None:
        """Append one operational event, dropping the oldest at capacity."""
        self.events.append((now, description))
        if len(self.events) > EVENT_CAPACITY:
            del self.events[: len(self.events) - EVENT_CAPACITY]

    def recent_events(self, limit: int = 5) -> List[Tuple[float, str]]:
        """The newest ``limit`` events, oldest of them first."""
        if limit <= 0:
            raise BestPeerError(f"event limit must be positive: {limit}")
        return self.events[-limit:]

    def serving_lane(
        self, tenant: str, lane: str, sample_capacity: int = SAMPLE_CAPACITY
    ) -> LaneServingStats:
        """The (auto-created) SLO counters for one tenant's lane."""
        key = (tenant, lane)
        stats = self.serving.get(key)
        if stats is None:
            stats = LaneServingStats(
                queue_wait=BoundedSamples(sample_capacity),
                e2e_latency=BoundedSamples(sample_capacity),
            )
            self.serving[key] = stats
        return stats

    def serving_tenants(self) -> List[str]:
        """Tenants with serving stats, in stable order."""
        return sorted({tenant for tenant, _ in self.serving})

    def _bucket_of(self, latency_s: float) -> int:
        for index, bound in enumerate(self.buckets):
            if latency_s <= bound:
                return index
        return len(self.buckets)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def total_queries(self) -> int:
        return sum(metrics.queries for metrics in self._engines.values())

    def engine(self, strategy: str) -> EngineMetrics:
        return self._engines.get(strategy, EngineMetrics())

    def strategies(self) -> List[str]:
        return sorted(self._engines)

    def latency_histogram(self) -> Dict[str, int]:
        """Bucket label -> count, e.g. ``"<=0.1s"`` and ``">600s"``."""
        labelled: Dict[str, int] = {}
        for index, bound in enumerate(self.buckets):
            labelled[f"<={bound:g}s"] = self._histogram[index]
        labelled[f">{self.buckets[-1]:g}s"] = self._histogram[-1]
        return labelled

    def percentile_latency(self, fraction: float) -> float:
        """Upper bound of the bucket containing the given percentile."""
        if not 0 < fraction <= 1:
            raise BestPeerError(f"fraction must be in (0, 1]: {fraction}")
        total = self.total_queries
        if total == 0:
            return 0.0
        threshold = math.ceil(total * fraction)
        seen = 0
        for index, count in enumerate(self._histogram):
            seen += count
            if seen >= threshold:
                if index < len(self.buckets):
                    return self.buckets[index]
                return math.inf
        return math.inf  # pragma: no cover

    def summary(self) -> str:
        """A human-readable multi-line report."""
        lines = [f"queries: {self.total_queries}"]
        for strategy in self.strategies():
            metrics = self._engines[strategy]
            lines.append(
                f"  {strategy}: n={metrics.queries} "
                f"mean={metrics.mean_latency_s:.3f}s "
                f"max={metrics.max_latency_s:.3f}s "
                f"bytes={metrics.total_bytes:,} "
                f"cost=${metrics.total_dollars:.6f}"
            )
        if self.faults.total:
            counters = self.faults.as_dict()
            lines.append(
                "  faults: "
                + " ".join(f"{name}={counters[name]}" for name in counters)
            )
        for tenant, lane in sorted(self.serving):
            stats = self.serving[(tenant, lane)]
            lines.append(
                f"  serving {tenant}/{lane}: offered={stats.offered} "
                f"admitted={stats.admitted} shed={stats.shed} "
                f"deadline_missed={stats.deadline_missed} "
                f"p99={stats.e2e_latency.percentile(0.99):.3f}s"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._engines.clear()
        self._histogram = [0] * (len(self.buckets) + 1)
        self.faults = FaultCounters()
        self.events = []
        self.serving = {}
