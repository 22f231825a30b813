"""The data indexer: table, column and range indexes over BATON (§4.3).

Index formats follow Table 2 of the paper:

* **table index**  ``IT(table) -> [peer, ...]`` — which peers host a table,
* **column index** ``IC(column) -> [(peer, [tables]), ...]`` — which peers
  host a column (multi-tenant peers may hold different column subsets),
* **range index**  ``ID(table) -> [(column, min, max, peer), ...]`` — per
  peer min/max of an indexed column.

Query-side lookups apply the paper's priority **Range > Column > Table**:
"We will use the more accurate index whenever possible."  Peers also cache
index entries in memory (§5.2, first optimization) — cached lookups cost
zero routing hops.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baton.replication import ReplicatedOverlay
from repro.baton.tree import string_to_key
from repro.errors import BestPeerError
from repro.sqlengine.stats import column_bounds
from repro.sqlengine.table import Table


@dataclass(frozen=True)
class TableIndexEntry:
    table: str
    peer_id: str


@dataclass(frozen=True)
class ColumnIndexEntry:
    column: str
    peer_id: str
    tables: Tuple[str, ...]


@dataclass(frozen=True)
class RangeIndexEntry:
    table: str
    column: str
    low: object
    high: object
    peer_id: str


@dataclass
class PeerLookup:
    """Result of locating the data owners for one table access."""

    table: str
    peers: List[str]
    index_used: str  # "range" | "column" | "table"
    hops: int
    cache_hit: bool = False


@dataclass(frozen=True)
class PartialIndexPolicy:
    """The partial indexing scheme ([26], cited in §2/§7).

    "partial indexing scheme [was proposed] for reducing the index size" —
    instead of publishing an entry for every table and column, a peer
    publishes only what the policy admits: tables above a row threshold
    and/or an explicit column allow-list.  Lookups for unindexed data fall
    back to *broadcast* (asking every known peer), trading query messages
    for index maintenance cost.
    """

    min_table_rows: int = 0
    # None = index every column; otherwise only these (lowercase) columns.
    indexed_columns: Optional[frozenset] = None

    def admits_table(self, row_count: int) -> bool:
        return row_count >= self.min_table_rows

    def admits_column(self, column: str) -> bool:
        return (
            self.indexed_columns is None
            or column.lower() in self.indexed_columns
        )

    @property
    def is_partial(self) -> bool:
        """True when the policy can leave something unindexed."""
        return self.min_table_rows > 0 or self.indexed_columns is not None


FULL_INDEX_POLICY = PartialIndexPolicy()


class DataIndexer:
    """Publishes and queries the three index types for one peer."""

    def __init__(
        self,
        overlay: ReplicatedOverlay,
        cache_enabled: bool = True,
        policy: PartialIndexPolicy = FULL_INDEX_POLICY,
    ) -> None:
        self.overlay = overlay
        self.cache_enabled = cache_enabled
        self.policy = policy
        self._cache: Dict[float, list] = {}
        # Everything this indexer instance published, for clean departure.
        self._published: List[Tuple[float, object]] = []

    # ------------------------------------------------------------------
    # Keys (Table 2: each index type keyed by a string)
    # ------------------------------------------------------------------
    @staticmethod
    def table_key(table: str) -> float:
        return string_to_key(f"IT:{table.lower()}")

    @staticmethod
    def column_key(column: str) -> float:
        return string_to_key(f"IC:{column.lower()}")

    @staticmethod
    def range_key(table: str) -> float:
        # "key is the table name" for the range index too.
        return string_to_key(f"ID:{table.lower()}")

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish_table(self, table: str, peer_id: str) -> int:
        entry = TableIndexEntry(table.lower(), peer_id)
        return self._publish(self.table_key(table), entry)

    def publish_column(
        self, column: str, peer_id: str, tables: Sequence[str]
    ) -> int:
        entry = ColumnIndexEntry(
            column.lower(), peer_id, tuple(sorted(t.lower() for t in tables))
        )
        return self._publish(self.column_key(column), entry)

    def publish_range(
        self, table: str, column: str, low: object, high: object, peer_id: str
    ) -> int:
        if low is not None and high is not None and low > high:
            raise BestPeerError(f"inverted range index bounds: {low} > {high}")
        entry = RangeIndexEntry(table.lower(), column.lower(), low, high, peer_id)
        return self._publish(self.range_key(table), entry)

    def sync_table(
        self, peer_id: str, table: Table, range_columns: Optional[dict] = None
    ) -> int:
        """Publish what the policy admits for one peer's table — its table
        entry, a column entry per admitted column, the live min/max of each of
        its ``range_columns`` — writing only the ``(key, entry)`` pairs that
        differ from what is published already (a refresh that moved no bound
        writes nothing).  Returns the routing hops spent."""
        name = table.schema.name
        entries: List[Tuple[float, object]] = []
        if len(table) and self.policy.admits_table(len(table)):
            entries.append((self.table_key(name), TableIndexEntry(name, peer_id)))
            for column in filter(self.policy.admits_column, table.schema.column_names):
                entry = ColumnIndexEntry(column.lower(), peer_id, (name,))
                entries.append((self.column_key(column), entry))
            for column in (range_columns or {}).get(name, ()):
                bounds = column_bounds(table, column)
                entry = RangeIndexEntry(name, column.lower(), *bounds, peer_id)
                entries.append((self.range_key(name), entry))
        stale = collections.Counter(
            (key, entry)
            for key, entry in self._published
            if entry.peer_id == peer_id
            and (name,) == (
                entry.tables if isinstance(entry, ColumnIndexEntry) else (entry.table,)
            )
        )
        wanted = collections.Counter(entries)
        return self._withdraw((stale - wanted).elements()) + sum(
            self._publish(key, entry) for key, entry in (wanted - stale).elements()
        )

    def unpublish_all(self, peer_id: str) -> int:
        """Withdraw every entry this indexer published for ``peer_id``."""
        return self._withdraw(
            [pair for pair in self._published if pair[1].peer_id == peer_id]
        )

    def _withdraw(self, pairs) -> int:
        hops = 0
        for key, entry in pairs:
            hops += self.overlay.delete(key, entry)[1]
            self._published.remove((key, entry))
            self._cache.pop(key, None)
        return hops

    def _publish(self, key: float, entry: object) -> int:
        hops = self.overlay.insert(key, entry)
        self._published.append((key, entry))
        self._cache.pop(key, None)
        return hops

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def peers_for_table(self, table: str) -> Tuple[Set[str], int, bool]:
        values, hops, cached = self._search(self.table_key(table))
        peers = {
            entry.peer_id
            for entry in values
            if isinstance(entry, TableIndexEntry) and entry.table == table.lower()
        }
        return peers, hops, cached

    def peers_for_column(
        self, column: str, table: Optional[str] = None
    ) -> Tuple[Set[str], int, bool]:
        values, hops, cached = self._search(self.column_key(column))
        peers = set()
        for entry in values:
            if not isinstance(entry, ColumnIndexEntry):
                continue
            if entry.column != column.lower():
                continue
            if table is not None and table.lower() not in entry.tables:
                continue
            peers.add(entry.peer_id)
        return peers, hops, cached

    def range_entries_for_table(
        self, table: str
    ) -> Tuple[List[RangeIndexEntry], int, bool]:
        values, hops, cached = self._search(self.range_key(table))
        entries = [
            entry
            for entry in values
            if isinstance(entry, RangeIndexEntry) and entry.table == table.lower()
        ]
        return entries, hops, cached

    def locate(
        self,
        table: str,
        column: Optional[str] = None,
        low: object = None,
        high: object = None,
        fallback_peers: Optional[Sequence[str]] = None,
    ) -> PeerLookup:
        """Find the data-owner peers for one table access.

        Applies the Range > Column > Table priority: a range constraint on an
        indexed column prunes peers by min/max overlap; otherwise a column
        constraint prunes to peers hosting that column; otherwise every peer
        hosting the table qualifies.

        Under a partial indexing policy a table may have no entries at all;
        when ``fallback_peers`` is given, the lookup then degrades to a
        broadcast over those peers (``index_used == "broadcast"``) instead of
        returning nobody — the just-in-time retrieval of [26].
        """
        if column is not None and (low is not None or high is not None):
            entries, hops, cached = self.range_entries_for_table(table)
            matching = [
                entry for entry in entries if entry.column == column.lower()
            ]
            if matching:
                peers = sorted(
                    {
                        entry.peer_id
                        for entry in matching
                        if _overlaps(entry.low, entry.high, low, high)
                    }
                )
                return PeerLookup(table.lower(), peers, "range", hops, cached)
        if column is not None:
            peers, hops, cached = self.peers_for_column(column, table)
            if peers:
                return PeerLookup(
                    table.lower(), sorted(peers), "column", hops, cached
                )
        peers, hops, cached = self.peers_for_table(table)
        if not peers and fallback_peers is not None:
            return PeerLookup(
                table.lower(), sorted(fallback_peers), "broadcast", hops, cached
            )
        return PeerLookup(table.lower(), sorted(peers), "table", hops, cached)

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        self._cache.clear()

    def _search(self, key: float) -> Tuple[list, int, bool]:
        if self.cache_enabled and key in self._cache:
            return self._cache[key], 0, True
        result = self.overlay.search(key)
        if self.cache_enabled:
            self._cache[key] = result.values
        return result.values, result.hops, False


def _overlaps(entry_low, entry_high, query_low, query_high) -> bool:
    """Closed-interval overlap with open-ended sides allowed."""
    if entry_low is None or entry_high is None:
        return True
    if query_low is not None and entry_high < query_low:
        return False
    if query_high is not None and entry_low > query_high:
        return False
    return True
