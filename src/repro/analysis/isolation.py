"""Peer-isolation rule ISO002: row movement bypassing SimNetwork pricing.

A peer in the simulation stands for a separate machine.  Pulling rows out
of a remote peer without pricing the bytes through
:class:`~repro.sim.network.SimNetwork` silently breaks the isolation the
cost model (Figs. 6-14) depends on.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register_rule


#: Methods that hand rows across a peer boundary.
_ROW_MOVING_METHODS = {"execute_fetch", "execute_local"}

#: Calls that prove the function prices bytes through the network.
_PRICING_METHODS = {"transfer", "broadcast"}


@register_rule
class NetworkBypassRule(Rule):
    """ISO002: calling a row-bearing peer method on another peer without a
    ``SimNetwork.transfer``/``broadcast`` in the same function moves data
    for free, so byte counts and latencies under-report.  Either price the
    bytes where they move, or annotate why the rows genuinely stay on the
    remote peer."""

    id = "ISO002"
    severity = Severity.ERROR
    description = (
        "row-moving peer call with no SimNetwork transfer in the same "
        "function (bytes move unpriced)"
    )
    categories = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in ctx.walk.scopes.values():
            calls = [site for site in scope.calls if site.receiver is not None]
            if any(site.callee_name in _PRICING_METHODS for site in calls):
                continue
            for site in calls:
                if site.callee_name not in _ROW_MOVING_METHODS:
                    continue
                if site.receiver in ("self", "cls"):
                    continue
                yield self.finding(
                    ctx,
                    site.node,
                    f"`.{site.callee_name}(...)` pulls rows from a peer but "
                    "this function never prices a SimNetwork transfer; "
                    "charge the bytes or annotate why the rows stay remote",
                )
