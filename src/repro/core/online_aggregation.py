"""Distributed online aggregation ([25], cited in §2 and §7).

During BestPeer's evolution "distributed online aggregation [25] techniques
[were introduced] to provide efficient query processing": instead of waiting
for every peer's partial aggregate, the query peer publishes a *running
estimate with a confidence interval* that tightens as partial results stream
in, letting the user stop early once the estimate is good enough.

The estimator treats the peers' partial aggregates as a uniform random
sample of all peers' contributions (peers are contacted in random order):

* running SUM estimate = (observed sum) · (total peers / observed peers),
* the confidence interval follows from the sample variance of per-peer
  contributions (normal approximation, as in classic online aggregation).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.core.accesscheck import require_unrestricted_read
from repro.errors import BestPeerError
from repro.plan.sms import partial_aggregate_plan

# Two-sided z-values for the confidence levels users typically request.
_Z_VALUES = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


@dataclass
class OnlineEstimate:
    """A running estimate after some peers have reported."""

    peers_observed: int
    peers_total: int
    estimate: float
    half_width: float  # confidence-interval half width
    confidence: float

    @property
    def is_final(self) -> bool:
        return self.peers_observed == self.peers_total

    @property
    def low(self) -> float:
        return self.estimate - self.half_width

    @property
    def high(self) -> float:
        return self.estimate + self.half_width

    @property
    def relative_error(self) -> float:
        if self.estimate == 0:
            return math.inf if self.half_width else 0.0
        return abs(self.half_width / self.estimate)


class OnlineSumAggregator:
    """Progressively estimates a network-wide SUM from per-peer partials."""

    def __init__(self, peers_total: int, confidence: float = 0.95) -> None:
        if peers_total < 1:
            raise BestPeerError(f"need at least one peer: {peers_total}")
        if confidence not in _Z_VALUES:
            raise BestPeerError(
                f"supported confidence levels: {sorted(_Z_VALUES)}"
            )
        self.peers_total = peers_total
        self.confidence = confidence
        self._observed: List[float] = []

    def observe(self, partial_sum: Optional[float]) -> OnlineEstimate:
        """Fold in one peer's partial aggregate (None counts as zero)."""
        if len(self._observed) >= self.peers_total:
            raise BestPeerError("every peer has already reported")
        self._observed.append(0.0 if partial_sum is None else float(partial_sum))
        return self.current()

    def current(self) -> OnlineEstimate:
        n = len(self._observed)
        if n == 0:
            raise BestPeerError("no peer has reported yet")
        total = sum(self._observed)
        scale = self.peers_total / n
        estimate = total * scale
        if n == self.peers_total or n < 2:
            half_width = 0.0 if n == self.peers_total else math.inf
        else:
            mean = total / n
            variance = sum((v - mean) ** 2 for v in self._observed) / (n - 1)
            # Finite-population correction: sampling without replacement.
            fpc = (self.peers_total - n) / self.peers_total
            stderr = math.sqrt(max(variance, 0.0) * fpc / n)
            half_width = _Z_VALUES[self.confidence] * stderr * self.peers_total
        return OnlineEstimate(
            peers_observed=n,
            peers_total=self.peers_total,
            estimate=estimate,
            half_width=half_width,
            confidence=self.confidence,
        )


def online_aggregate(
    network,
    sql: str,
    user: Optional[str] = None,
    confidence: float = 0.95,
    target_relative_error: Optional[float] = None,
    seed: int = 0,
    peer_id: Optional[str] = None,
) -> Iterator[OnlineEstimate]:
    """Run a scalar-SUM query progressively over a BestPeerNetwork.

    Contacts the data-owner peers one at a time in random order, yielding an
    :class:`OnlineEstimate` after each report.  Stops early when
    ``target_relative_error`` is reached (the final yielded estimate
    satisfies it); otherwise runs to completion, where the estimate is exact.

    ``peer_id`` names the query peer collecting the reports (default: the
    same first-sorted peer ``BestPeerNetwork.execute`` submits from); each
    partial aggregate is priced as a transfer from its owner to that peer,
    so progressive queries show up in the byte accounting like any other.

    Only single-table scalar SUM queries qualify (the online-aggregation
    sweet spot); anything else raises.
    """
    _, plan = network.planner.compile_text(sql)
    if plan.joins or plan.aggregate is None or plan.aggregate.group_exprs:
        raise BestPeerError(
            "online aggregation supports single-table scalar aggregates"
        )
    if plan.aggregate.partials is None or len(plan.aggregate.aggregates) != 1:
        raise BestPeerError("online aggregation needs one decomposable SUM")
    call = plan.aggregate.aggregates[0]
    if call.name.lower() != "sum":
        raise BestPeerError("online aggregation currently estimates SUM only")

    local_plan = partial_aggregate_plan(plan)
    owners = sorted(
        peer_id
        for peer_id in network.peers
        if network.peers[peer_id].database.has_table(plan.base.table)
        and len(network.peers[peer_id].database.table(plan.base.table)) > 0
    )
    if not owners:
        raise BestPeerError(f"no peer hosts {plan.base.table!r}")
    random.Random(seed).shuffle(owners)

    if peer_id is None:
        peer_id = sorted(network.peers)[0]
    query_peer = network.peers.get(peer_id)
    if query_peer is None:
        raise BestPeerError(f"unknown peer: {peer_id!r}")

    # Partial sums are derived values no role rule can rewrite, so the
    # unmasked fetch below is only legal when masking could not have
    # changed the answer anywhere (§4.4) — the same gate as the engines'
    # partial-aggregate pushdowns.
    require_unrestricted_read(network.peers, [plan.base], owners, user)

    aggregator = OnlineSumAggregator(len(owners), confidence)
    for owner_id in owners:

        def fetch_report(owner_id: str = owner_id):
            # Resolve the owner inside the attempt: a fail-over rebinds the
            # peer to a fresh instance between retries.
            owner = network.peers[owner_id]
            execution = owner.execute_fetch(
                plan.base.table, local_plan.sql, user=None
            )
            # Each report is one small cross-peer message; charge its bytes
            # to the simulated network so the cost model sees progressive
            # queries.
            network.network.transfer(
                owner.host,
                query_peer.host,
                execution.result.byte_size,
            )
            return execution

        execution = network.resilience.call(owner_id, fetch_report)
        partial = execution.result.rows[0][0] if execution.result.rows else None
        estimate = aggregator.observe(partial)
        yield estimate
        if (
            target_relative_error is not None
            and estimate.relative_error <= target_relative_error
        ):
            return
