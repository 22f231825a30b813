"""Bounded per-tenant admission queues with deadline-aware shedding.

Each (tenant, lane) pair owns one bounded queue.  A request is admitted
only when all three gates pass, and otherwise is rejected *immediately*
with a retry-after hint — nothing ever queues forever:

1. **deadline feasibility** — if the scheduler's current estimated queue
   delay already overruns the request's deadline, admitting it would only
   burn a worker on a result nobody can use (counted ``deadline_missed``),
2. **backpressure** — when worker saturation pushes the estimated delay
   past ``ServingConfig.bulk_backpressure_s``, new *bulk* requests are
   shed while interactive ones still queue: the analytics lane degrades
   first, by design (counted ``shed_backpressure``),
3. **queue bound** — a full (tenant, lane) queue sheds the newcomer
   (counted ``shed_queue_full``), so one tenant's flash crowd cannot grow
   state without limit or starve the other tenants' queues.

The queues themselves are ``deque(maxlen=...)``: the bound is structural.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import (
    DEFAULT_ENGINE,
    LANE_INTERACTIVE,
    SERVING_LANES,
    ServingConfig,
)
from repro.errors import AdmissionRejectedError, ServingError

#: Why a request was not admitted.
REASON_QUEUE_FULL = "queue_full"
REASON_BACKPRESSURE = "backpressure"
REASON_DEADLINE = "deadline"
SHED_REASONS = (REASON_QUEUE_FULL, REASON_BACKPRESSURE, REASON_DEADLINE)


@dataclass(frozen=True)
class ServingRequest:
    """One query as it enters the front door.

    ``deadline_s`` is *relative* to submission time; when omitted the
    lane's default from :class:`~repro.core.config.ServingConfig` applies.
    ``engine``/``user``/``peer_id`` are forwarded verbatim to
    :meth:`repro.core.network.BestPeerNetwork.execute`.
    """

    tenant: str
    sql: str
    lane: str = LANE_INTERACTIVE
    deadline_s: Optional[float] = None
    engine: str = DEFAULT_ENGINE
    user: Optional[str] = None
    peer_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ServingError("a request needs a tenant")
        if self.lane not in SERVING_LANES:
            raise ServingError(
                f"unknown lane {self.lane!r}; pick one of {SERVING_LANES}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServingError(
                f"relative deadline must be positive: {self.deadline_s}"
            )


@dataclass
class QueuedRequest:
    """An admitted request waiting for a worker."""

    request: ServingRequest
    submitted_at: float
    deadline_at: float


@dataclass(frozen=True)
class AdmissionTicket:
    """The front door's immediate answer to one submission."""

    tenant: str
    lane: str
    admitted: bool
    reason: Optional[str] = None  # a SHED_REASONS member when not admitted
    retry_after_s: float = 0.0
    queue_depth: int = 0  # lane occupancy right after the decision

    def raise_if_shed(self) -> "AdmissionTicket":
        """Turn a rejection into the typed error clients retry on."""
        if self.admitted:
            return self
        raise AdmissionRejectedError(
            f"request shed for tenant {self.tenant!r} lane {self.lane!r}: "
            f"{self.reason} (retry after {self.retry_after_s:.3f}s)",
            tenant=self.tenant,
            lane=self.lane,
            reason=self.reason or "unknown",
            retry_after_s=self.retry_after_s,
        )


class AdmissionController:
    """Owns the bounded queues and the three admission gates."""

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        self._queues: Dict[Tuple[str, str], Deque[QueuedRequest]] = {}

    # ------------------------------------------------------------------
    # Queue surface
    # ------------------------------------------------------------------
    def queue(self, tenant: str, lane: str) -> Deque[QueuedRequest]:
        key = (tenant, lane)
        q = self._queues.get(key)
        if q is None:
            q = deque(maxlen=self.config.queue_depth)
            self._queues[key] = q
        return q

    def depth(self, tenant: str, lane: str) -> int:
        q = self._queues.get((tenant, lane))
        return 0 if q is None else len(q)

    def backlog(self) -> int:
        """Total requests queued across every tenant and lane."""
        return sum(len(q) for q in self._queues.values())

    def tenants_with_backlog(self, lane: str) -> List[str]:
        """Tenants holding queued requests in ``lane``, in stable order."""
        return sorted(
            tenant
            for (tenant, queued_lane), q in self._queues.items()
            if queued_lane == lane and q
        )

    def pop(self, tenant: str, lane: str) -> Optional[QueuedRequest]:
        """Dequeue the oldest request of one (tenant, lane), if any."""
        q = self._queues.get((tenant, lane))
        if not q:
            return None
        return q.popleft()

    # ------------------------------------------------------------------
    # The admission decision
    # ------------------------------------------------------------------
    def offer(
        self,
        request: ServingRequest,
        now: float,
        estimated_delay_s: float,
        retry_after_s: float,
    ) -> Tuple[AdmissionTicket, Optional[QueuedRequest]]:
        """Admit or shed one request at time ``now``.

        ``estimated_delay_s`` is the scheduler's current queue-delay
        estimate (the backpressure signal from worker saturation);
        ``retry_after_s`` is the hint attached to any rejection.  Returns
        the ticket plus the queued entry when admitted.
        """
        deadline_at = now + (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.lane_deadline_s(request.lane)
        )
        if now + estimated_delay_s > deadline_at:
            return self._shed(request, REASON_DEADLINE, retry_after_s), None
        if (
            request.lane != LANE_INTERACTIVE
            and estimated_delay_s > self.config.bulk_backpressure_s
        ):
            return (
                self._shed(request, REASON_BACKPRESSURE, retry_after_s),
                None,
            )
        q = self.queue(request.tenant, request.lane)
        if len(q) >= self.config.queue_depth:
            return self._shed(request, REASON_QUEUE_FULL, retry_after_s), None
        queued = QueuedRequest(
            request=request, submitted_at=now, deadline_at=deadline_at
        )
        q.append(queued)
        ticket = AdmissionTicket(
            tenant=request.tenant,
            lane=request.lane,
            admitted=True,
            queue_depth=len(q),
        )
        return ticket, queued

    def _shed(
        self, request: ServingRequest, reason: str, retry_after_s: float
    ) -> AdmissionTicket:
        return AdmissionTicket(
            tenant=request.tenant,
            lane=request.lane,
            admitted=False,
            reason=reason,
            retry_after_s=retry_after_s,
            queue_depth=self.depth(request.tenant, request.lane),
        )
