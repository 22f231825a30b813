"""Two-tier partial replication over the BATON overlay.

"BestPeer++ employs replication of index data in the BATON structure to
ensure the correct retrieval of index data in the presence of failures.
Specifically, we use the two-tier partial replication strategy" (Section
4.3, citing [24]).

The wrapper keeps, for every item stored at its responsible (primary) node,
copies on the ``replica_factor`` nearest in-order neighbours (the secondary
tier).  When the primary is offline the lookup is served from a replica;
when a node permanently departs, re-replication restores the redundancy
level.

Replicas also carry read traffic when the primary is *hot*, not just when
it is dead: pass a read policy (``read_policy=`` or per call) and exact
and range lookups fan out across the primary plus its online replica
holders, chosen by the policy (random / least-loaded / power-of-k, see
:mod:`repro.baton.loadbalance`).  This is the mitigation for a flash crowd
on a single key, which no amount of sub-domain migration can split.

Replica maintenance on membership changes is *incremental*: a join or leave
only touches the in-order neighbourhood whose holder assignment (or item
range) actually changed, not the whole network.  :meth:`rebuild_replicas`
remains as the full-refresh fallback.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import BatonError, ReplicaUnavailableError
from repro.baton.node import BatonNode
from repro.baton.tree import BatonOverlay, SearchResult


class ReplicatedOverlay:
    """A BATON overlay with neighbour replication and fail-over reads.

    ``read_policy`` is any object with a ``choose(candidates)`` method
    (see :class:`repro.baton.loadbalance.ReplicaChoicePolicy`); when set,
    reads fan out across the primary and its online replica holders
    instead of always hammering the primary.
    """

    def __init__(
        self,
        overlay: BatonOverlay,
        replica_factor: int = 2,
        read_policy=None,
    ) -> None:
        if replica_factor < 1:
            raise BatonError(f"replica factor must be >= 1: {replica_factor}")
        self.overlay = overlay
        self.replica_factor = replica_factor
        self.read_policy = read_policy
        # Reads served by a replica holder while the primary was online
        # (fan-out working), vs served because the primary was offline.
        self.fanout_reads = 0
        self.failover_reads = 0
        # replica copies: holder id -> {primary id -> {key -> values}}.
        # Keying by primary is what makes incremental repair possible: one
        # primary's contribution can be dropped without touching the copies
        # the holder keeps for anyone else.
        self._store: Dict[str, Dict[str, Dict[float, List[object]]]] = {}
        # The holder assignment the store currently reflects.
        self._assignment: Dict[str, List[str]] = {}
        # Each primary's responsibility range at the last repair.  Items
        # only move between nodes when ranges move (splits on join, merges
        # and substitutions on leave), so a range diff finds exactly the
        # primaries whose replicas are stale.
        self._ranges: Dict[str, object] = {}
        # Primaries re-copied by the last membership change (observability:
        # incremental repair should keep this far below the network size).
        self.last_repair_count = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, node_id: str) -> BatonNode:
        node = self.overlay.join(node_id)
        self._store.setdefault(node_id, {})
        self._repair_membership()
        return node

    def leave(self, node_id: str) -> None:
        self.overlay.leave(node_id)
        # Whatever the departed node held for others is gone with it; its
        # primaries lost a holder, which the assignment diff repairs below.
        self._store.pop(node_id, None)
        self._repair_membership()

    def __len__(self) -> int:
        return len(self.overlay)

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------
    def mark_offline(self, node_id: str) -> None:
        self.overlay.node(node_id).online = False

    def mark_online(self, node_id: str) -> None:
        self.overlay.node(node_id).online = True

    # ------------------------------------------------------------------
    # Item operations with replication
    # ------------------------------------------------------------------
    def insert(self, key: float, value: object) -> int:
        node, hops = self.overlay.find_responsible(key)
        node.add_item(key, value)
        node.load.record_write()
        node.touch_key(key)
        for holder_id in self._assignment.get(node.node_id, []):
            self._store.setdefault(holder_id, {}).setdefault(
                node.node_id, {}
            ).setdefault(key, []).append(value)
            self.overlay.node(holder_id).load.record_write()
            hops += 1  # one message per replica copy
        return hops

    def delete(self, key: float, value: object) -> Tuple[bool, int]:
        node, hops = self.overlay.find_responsible(key)
        removed = node.remove_item(key, value)
        node.load.record_write()
        for holder_id in self._assignment.get(node.node_id, []):
            copies = (
                self._store.get(holder_id, {})
                .get(node.node_id, {})
                .get(key)
            )
            if copies and value in copies:
                copies.remove(value)
                if not copies:
                    del self._store[holder_id][node.node_id][key]
            hops += 1
        return removed, hops

    def search(
        self,
        key: float,
        policy=None,
        start_id: Optional[str] = None,
    ) -> SearchResult:
        """Exact lookup, fanned out across replicas when a policy says so.

        Without a policy (constructor or per-call) the primary serves
        every read it is online for, and a replica only steps in on
        fail-over — the original behaviour.  With a policy, the serving
        node is chosen among the online primary + replica holders, so a
        flash crowd on one key spreads over ``replica_factor + 1`` nodes.
        """
        policy = policy if policy is not None else self.read_policy
        node, hops = self.overlay.find_responsible(key, start_id)
        # Heat accrues at the primary regardless of who serves: migration
        # decisions are about key popularity, not about which copy
        # happened to answer.
        node.touch_key(key)
        chosen = self._choose_server(node, policy)
        if chosen is node:
            node.load.record_read()
            return SearchResult(
                values=list(node.items.get(key, [])),
                hops=hops,
                node_ids=[node.node_id],
            )
        values = list(
            self._store.get(chosen.node_id, {})
            .get(node.node_id, {})
            .get(key, [])
        )
        chosen.load.record_read()
        if node.online:
            self.fanout_reads += 1
        else:
            self.failover_reads += 1
        return SearchResult(
            values=values, hops=hops + 1, node_ids=[chosen.node_id]
        )

    def range_search(
        self,
        low: float,
        high: float,
        policy=None,
        start_id: Optional[str] = None,
    ) -> SearchResult:
        """Range scan with per-segment replica fan-out.

        Routes to the owner of ``low`` and walks right-adjacent links
        (BATON's range strategy), but each segment is *served* by the
        node the policy picks among the segment's primary and its online
        replica holders — so a hot range's read load spreads across the
        whole replica neighbourhood instead of serializing on the
        primaries.
        """
        policy = policy if policy is not None else self.read_policy
        if low >= high:
            return SearchResult(values=[], hops=0)
        domain = self.overlay.domain
        low = max(low, domain.low)
        if low >= domain.high:
            return SearchResult(values=[], hops=0)
        node, hops = self.overlay.find_responsible(low, start_id)
        values: List[Tuple[float, object]] = []
        node_ids: List[str] = []
        while node is not None and node.r0.low < high:
            chosen = self._choose_server(node, policy)
            if chosen is node:
                matched = node.items_in_range(low, high)
            else:
                copies = self._store.get(chosen.node_id, {}).get(
                    node.node_id, {}
                )
                matched = [
                    (key, value)
                    for key in sorted(copies)
                    if low <= key < high
                    for value in copies[key]
                ]
                hops += 1  # redirect from the primary to the holder
                if node.online:
                    self.fanout_reads += 1
                else:
                    self.failover_reads += 1
            chosen.load.record_read()
            for key in sorted({key for key, _ in matched}):
                node.touch_key(key)
            values.extend(matched)
            node_ids.append(chosen.node_id)
            node = node.adjacent_right
            if node is not None:
                hops += 1
        return SearchResult(values=values, hops=hops, node_ids=node_ids)

    def _choose_server(self, primary: BatonNode, policy) -> BatonNode:
        """The node that serves a read against ``primary``'s range."""
        candidates: List[BatonNode] = [primary] if primary.online else []
        for holder_id in self._assignment.get(primary.node_id, []):
            holder = self.overlay.node(holder_id)
            if holder.online:
                candidates.append(holder)
        if not candidates:
            raise ReplicaUnavailableError(
                f"no online copy of {primary.node_id!r}'s range "
                "(primary and every replica holder down)"
            )
        if policy is None or len(candidates) == 1:
            # No policy: primary when online, first online holder else —
            # the original fail-over-only behaviour.
            return candidates[0]
        return policy.choose(candidates)

    # ------------------------------------------------------------------
    # Re-replication
    # ------------------------------------------------------------------
    def rebuild_replicas(self) -> None:
        """Recompute every replica set from scratch (full refresh)."""
        assignment = self._current_assignment()
        self._store = {node_id: {} for node_id in assignment}
        for primary_id, holder_ids in assignment.items():
            self._copy_primary(primary_id, holder_ids)
        self._assignment = assignment
        self._ranges = self._current_ranges()
        self.last_repair_count = len(assignment)

    def repair(self) -> int:
        """Re-copy replicas after primaries' ranges moved (migration).

        Load-balancing migrations shift sub-domain boundaries exactly
        like joins and leaves do, so the same incremental range-diff
        repair applies.  Returns the number of primaries re-copied.
        """
        self._repair_membership()
        return self.last_repair_count

    # ------------------------------------------------------------------
    # Invariants (delegated to the underlying overlay)
    # ------------------------------------------------------------------
    def census(self) -> Dict[float, int]:
        """Key-space census over the *primary* copies."""
        return self.overlay.census()

    def check_invariants(
        self, expected_census: Optional[Dict[float, int]] = None
    ) -> None:
        self.overlay.check_invariants(expected_census=expected_census)

    def replica_count(self, node_id: str) -> int:
        """Number of replica values held *for other nodes* at ``node_id``."""
        return sum(
            len(values)
            for primary_store in self._store.get(node_id, {}).values()
            for values in primary_store.values()
        )

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------
    def _repair_membership(self) -> None:
        """Repair replicas after one join/leave.

        Two classes of primaries need re-copying: those whose *holder
        assignment* changed (a new or vanished in-order neighbour), and
        those whose *items* moved — a join splits the parent's range, a
        leave merges a leaf's range into a neighbour or substitutes a
        relocated leaf into the vacant position.  Items only ever move
        because responsibility ranges move, so diffing each node's range
        against the last repair finds exactly the stale primaries.  Both
        diffs are O(n) id/range comparisons; item copying happens only for
        the dirty neighbourhood.
        """
        assignment = self._current_assignment()
        ranges = self._current_ranges()
        dirty: Set[str] = {
            primary_id
            for primary_id, holder_ids in assignment.items()
            if self._assignment.get(primary_id) != holder_ids
            or self._ranges.get(primary_id) != ranges[primary_id]
        }
        # Departed primaries: purge their copies from surviving holders.
        dirty.update(
            primary_id
            for primary_id in self._assignment
            if primary_id not in assignment
        )

        for primary_id in sorted(dirty):
            for holder_id in self._assignment.get(primary_id, []):
                holder_store = self._store.get(holder_id)
                if holder_store is not None:
                    holder_store.pop(primary_id, None)
            holder_ids = assignment.get(primary_id)
            if holder_ids is None:
                self._assignment.pop(primary_id, None)
                self._ranges.pop(primary_id, None)
                continue
            self._copy_primary(primary_id, holder_ids)
            self._assignment[primary_id] = list(holder_ids)
            self._ranges[primary_id] = ranges[primary_id]
        self.last_repair_count = len(dirty)

    def _copy_primary(self, primary_id: str, holder_ids: List[str]) -> None:
        node = self.overlay.node(primary_id)
        for holder_id in holder_ids:
            self._store.setdefault(holder_id, {})[primary_id] = {
                key: list(values) for key, values in node.items.items()
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _current_ranges(self) -> Dict[str, object]:
        return {node.node_id: node.r0 for node in self.overlay.nodes()}

    def _current_assignment(self) -> Dict[str, List[str]]:
        nodes = self.overlay.nodes()
        return {
            node.node_id: [
                holder.node_id for holder in self._holders_at(nodes, index)
            ]
            for index, node in enumerate(nodes)
        }

    def _holders_at(
        self, nodes: List[BatonNode], index: int
    ) -> List[BatonNode]:
        if len(nodes) <= 1:
            return []
        holders: List[BatonNode] = []
        offset = 1
        while len(holders) < self.replica_factor and offset < len(nodes):
            right = index + offset
            left = index - offset
            if right < len(nodes):
                holders.append(nodes[right])
            if len(holders) < self.replica_factor and left >= 0:
                holders.append(nodes[left])
            offset += 1
        return holders[: self.replica_factor]
