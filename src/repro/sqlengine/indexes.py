"""Secondary and primary indexes.

The engine uses an ordered index (sorted key array + row-id lists, maintained
with binary search) — the same access paths a B+-tree gives MySQL/MyISAM:
exact lookup, range scan, and min/max in O(log n).

Row ids are positions into the owning table's row list; deleted rows leave
tombstones in the table, and the index drops their entries eagerly.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import SqlCatalogError, SqlExecutionError

#: Sentinel distinct from every real key (``None`` is a valid non-key).
_NO_KEY = object()


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
            self._row_ids[position].append(row_id)
        else:
            self._keys.insert(position, key)
            self._row_ids.insert(position, [row_id])

    def insert_many(self, pairs: Iterable[Tuple[object, int]]) -> None:
        """Bulk-insert ``(key, row_id)`` pairs in one merge pass.

        Equivalent to calling :meth:`insert` per pair, but rebuilds the
        sorted key array with a single two-pointer merge instead of shifting
        it once per row — the loader path every bulk ingest (MemTable spill,
        benchmark setup) pays.
        """
        incoming = sorted(pair for pair in pairs if pair[0] is not None)
        if not incoming:
            return
        if self.unique:
            previous: object = _NO_KEY
            for key, _ in incoming:
                if key == previous or self.lookup(key):
                    raise SqlExecutionError(
                        f"unique index {self.name!r} violated by key {key!r}"
                    )
                previous = key
        merged_keys: List[object] = []
        merged_ids: List[List[int]] = []
        keys, ids = self._keys, self._row_ids
        i, n = 0, len(keys)
        j, m = 0, len(incoming)
        while i < n and j < m:
            key = keys[i]
            new_key = incoming[j][0]
            if key < new_key:
                merged_keys.append(key)
                merged_ids.append(ids[i])
                i += 1
                continue
            if new_key < key:
                bucket = [incoming[j][1]]
                j += 1
                while j < m and incoming[j][0] == new_key:
                    bucket.append(incoming[j][1])
                    j += 1
                merged_keys.append(new_key)
                merged_ids.append(bucket)
                continue
            bucket = ids[i]
            while j < m and incoming[j][0] == key:
                bucket.append(incoming[j][1])
                j += 1
            merged_keys.append(key)
            merged_ids.append(bucket)
            i += 1
        merged_keys.extend(keys[i:])
        merged_ids.extend(ids[i:])
        while j < m:
            new_key = incoming[j][0]
            bucket = [incoming[j][1]]
            j += 1
            while j < m and incoming[j][0] == new_key:
                bucket.append(incoming[j][1])
                j += 1
            merged_keys.append(new_key)
            merged_ids.append(bucket)
        self._keys = merged_keys
        self._row_ids = merged_ids

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
