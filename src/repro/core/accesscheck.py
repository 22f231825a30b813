"""The shared §4.4 pushdown gate: may a whole query run unmasked?

The access-control enforcement point is
:meth:`~repro.core.peer.NormalPeer.execute_fetch`, which rewrites every
outgoing row against the user's role before it leaves the owner.  Three
execution paths cannot route through it — the single-peer optimization
(§6.2.3) ships the *original* SQL, partial-aggregate pushdowns ship
derived values no rule can mask, and the MapReduce engine's map tasks
read raw fragments — so each of them must first prove that masking could
never have changed the answer: the user's role at **every** involved
peer grants an unrestricted ``read`` on **every** referenced column.

Centralising the proof here keeps the three engines agreeing on what
"unrestricted" means and gives the SEC001 taint rule one call-graph
anchor (``rule_for``) to find on those paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.core.access_control import READ
from repro.errors import AccessControlError

if TYPE_CHECKING:
    from repro.core.peer import NormalPeer
    from repro.plan.sms import TableLocalPlan


def _first_restriction(
    peers: Mapping[str, "NormalPeer"],
    local_plans: Iterable["TableLocalPlan"],
    peer_ids: Iterable[str],
    user: Optional[str],
) -> Optional[str]:
    """The first reason the read is restricted, or None if unrestricted."""
    if user is None:
        return None
    for local_plan in local_plans:
        table = local_plan.table
        bare_columns = [
            name.rsplit(".", 1)[-1] for name in local_plan.columns
        ]
        for peer_id in sorted(peer_ids):
            owner = peers.get(peer_id)
            if owner is None:
                return f"peer {peer_id!r} is unknown"
            if not owner.access.has_user(user):
                return f"user {user!r} does not exist at peer {peer_id!r}"
            role = owner.access.role_of(user)
            for column in bare_columns:
                access_rule = role.rule_for(f"{table}.{column}")
                if access_rule is None:
                    return (
                        f"role {role.name!r} at peer {peer_id!r} has no "
                        f"rule for {table}.{column}"
                    )
                if READ not in access_rule.privileges:
                    return (
                        f"role {role.name!r} at peer {peer_id!r} cannot "
                        f"read {table}.{column}"
                    )
                if access_rule.value_range is not None:
                    return (
                        f"role {role.name!r} at peer {peer_id!r} reads "
                        f"{table}.{column} under a value range"
                    )
    return None


def unrestricted_read(
    peers: Mapping[str, "NormalPeer"],
    local_plans: Iterable["TableLocalPlan"],
    peer_ids: Iterable[str],
    user: Optional[str],
) -> bool:
    """True when no access rewriting could change any fetched row."""
    return _first_restriction(peers, local_plans, peer_ids, user) is None


def require_unrestricted_read(
    peers: Mapping[str, "NormalPeer"],
    local_plans: Iterable["TableLocalPlan"],
    peer_ids: Iterable[str],
    user: Optional[str],
) -> None:
    """Raise :class:`AccessControlError` unless the read is unrestricted.

    Guards execution paths that bypass per-row rewriting entirely; callers
    that can fall back to a masked path should test
    :func:`unrestricted_read` instead.
    """
    reason = _first_restriction(peers, local_plans, peer_ids, user)
    if reason is not None:
        raise AccessControlError(
            f"query cannot bypass access rewriting: {reason}"
        )
