"""Secondary and primary indexes.

The engine uses an ordered index (sorted key array + row-id lists, maintained
with binary search) — the same access paths a B+-tree gives MySQL/MyISAM:
exact lookup, range scan, and min/max in O(log n).

Row ids are positions into the owning table's column lists, and a key's
ids are kept ascending.  A table write that moves positions (a delete)
rebuilds the index with one :meth:`OrderedIndex.insert_many`.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SqlCatalogError, SqlExecutionError


class OrderedIndex:
    """An ordered (key -> row ids) index over one column.

    ``None`` keys are not indexed (SQL semantics: NULL never matches an
    equality or range predicate), so lookups never return NULL rows.
    """

    def __init__(self, name: str, column: str, unique: bool = False) -> None:
        self.name = name
        self.column = column.lower()
        self.unique = unique
        self._keys: List[object] = []
        self._row_ids: List[List[int]] = []

    def __len__(self) -> int:
        return sum(len(ids) for ids in self._row_ids)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, key: object, row_id: int) -> None:
        if key is None:
            return
        position = bisect.bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            if self.unique:
                raise SqlExecutionError(
                    f"unique index {self.name!r} violated by key {key!r}"
                )
            bisect.insort(self._row_ids[position], row_id)
        else:
            self._keys.insert(position, key)
            self._row_ids.insert(position, [row_id])

    def insert_many(self, pairs: Iterable[Tuple[object, int]]) -> None:
        """Bulk-insert ``(key, row_id)`` pairs; all of them or, on a unique
        violation, none.

        Equivalent to calling :meth:`insert` per pair, but the pairs are
        bucketed by key in one pass and the key array is rebuilt by one sort
        of two sorted runs (old keys, new keys) instead of being shifted
        once per row — what every bulk ingest (loader, MemTable spill) pays.
        """
        fresh: Dict[object, List[int]] = {}
        for key, row_id in pairs:
            if key is not None:
                fresh.setdefault(key, []).append(row_id)
        merged = dict(zip(self._keys, self._row_ids))
        for key in sorted(fresh):
            row_ids = merged[key] + fresh[key] if key in merged else fresh[key]
            if self.unique and len(row_ids) > 1:
                raise SqlExecutionError(
                    f"unique index {self.name!r} violated by key {key!r}"
                )
            merged[key] = row_ids
        self._keys = sorted(merged)
        # Fresh lists, allocated in key order: that is the order a range
        # scan walks them in, and buckets scattered in arrival order measured
        # ≈ 2 % on a whole join_fetch round.
        self._row_ids = list(map(list, map(merged.__getitem__, self._keys)))

    def remove(self, key: object, row_id: int) -> None:
        if key is None:
            return
        position = bisect.bisect_left(self._keys, key)
        if position >= len(self._keys) or self._keys[position] != key:
            raise SqlExecutionError(
                f"index {self.name!r} has no entry for key {key!r}"
            )
        ids = self._row_ids[position]
        try:
            ids.remove(row_id)
        except ValueError:
            raise SqlExecutionError(
                f"index {self.name!r} key {key!r} has no row id {row_id}"
            ) from None
        if not ids:
            del self._keys[position]
            del self._row_ids[position]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, key: object) -> List[int]:
        """Row ids whose key equals ``key`` (empty for None)."""
        if key is None:
            return []
        position = bisect.bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            return list(self._row_ids[position])
        return []

    def range_scan(
        self,
        low: Optional[object] = None,
        high: Optional[object] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[int]:
        """Row ids with keys in the given (possibly open-ended) range."""
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif high_inclusive:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return chain.from_iterable(self._row_ids[start:stop])

    def min_key(self) -> Optional[object]:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Optional[object]:
        return self._keys[-1] if self._keys else None

    def distinct_keys(self) -> int:
        return len(self._keys)

    def keys(self) -> Iterable[object]:
        return iter(self._keys)
