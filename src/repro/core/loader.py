"""The data loader: production system -> normal peer, with snapshot diffs.

§4.2: the loader extracts rows from the business's production system,
transforms them through the schema mapping, and stores them in the peer's
local database.  Consistency with the (continuously updated) production
system is maintained by snapshot differentials:

1. every extraction also stores a *snapshot* of the extracted data
   ("in a separate database"),
2. at refresh time a new snapshot is taken and compared with the stored one:
   every tuple is fingerprinted with 32-bit Rabin fingerprinting, both
   fingerprint tables are sorted, and a sort-merge pass reveals the changes
   (the algorithm of Garcia-Molina & Labio [8]),
3. the delta (inserts + deletes; an update is a delete-insert pair) is
   applied to the peer's MySQL database.
"""

from __future__ import annotations

import marshal
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fingerprint import fingerprint_tuple
from repro.core.schema_mapping import SchemaMapping
from repro.errors import SchemaMappingError
from repro.sqlengine.database import Database


@dataclass
class SnapshotDelta:
    """The outcome of one load or differential refresh of one global table.

    Read-only: an initial load's ``inserted`` is the snapshot store's own list.
    """

    table: str
    inserted: List[tuple] = field(default_factory=list)
    deleted: List[tuple] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.inserted and not self.deleted

    @property
    def change_count(self) -> int:
        return len(self.inserted) + len(self.deleted)


def snapshot_diff(
    old_rows: Sequence[tuple], new_rows: Sequence[tuple]
) -> Tuple[List[tuple], List[tuple]]:
    """Sort-merge differential of two snapshots; returns (inserted, deleted).

    Implements the fingerprint-sort-merge algorithm of §4.2: each tuple is
    reduced to its Rabin fingerprint, both sides are sorted by fingerprint,
    and one merge pass emits the rows present on only one side.  Duplicate
    tuples are handled by multiplicity (two copies vs. one copy = one
    change).
    """
    old_sorted = sorted(
        ((fingerprint_tuple(row), row) for row in old_rows), key=_merge_key
    )
    new_sorted = sorted(
        ((fingerprint_tuple(row), row) for row in new_rows), key=_merge_key
    )
    inserted: List[tuple] = []
    deleted: List[tuple] = []
    i = j = 0
    while i < len(old_sorted) and j < len(new_sorted):
        old_key = _merge_key(old_sorted[i])
        new_key = _merge_key(new_sorted[j])
        if old_key == new_key:
            i += 1
            j += 1
        elif old_key < new_key:
            deleted.append(old_sorted[i][1])
            i += 1
        else:
            inserted.append(new_sorted[j][1])
            j += 1
    deleted.extend(row for _, row in old_sorted[i:])
    inserted.extend(row for _, row in new_sorted[j:])
    return inserted, deleted


def _merge_key(entry: Tuple[int, tuple]) -> Tuple[int, str]:
    # The fingerprint orders the merge; repr breaks (rare) collisions so the
    # merge never misclassifies two different tuples with equal fingerprints.
    return entry[0], repr(entry[1])


def _cancel_key(row: tuple) -> object:
    """Equal for two rows only if :func:`fingerprint_tuple` encodes them alike,
    which ``==`` does not promise (``1 == 1.0 == True``, ``0.0 == -0.0``):
    marshal version 2 is exact on type and value.  A row it refuses gets a
    key equal to nothing."""
    try:
        return marshal.dumps(row, 2)
    except ValueError:
        return object()


def _residue(rows: Sequence[tuple], keys: list, unmatched: Counter) -> List[tuple]:
    """``rows``, in order, minus one per equal-keyed row of the other snapshot
    (its key counts, consumed here): pairs the reference merge would cancel
    too, so it need not see them."""
    kept = []
    for row, key in zip(rows, keys):
        if unmatched.get(key):
            unmatched[key] -= 1
        else:
            kept.append(row)
    return kept


class DataLoader:
    """Loads and refreshes one peer's share of the corporate network data."""

    def __init__(self, database: Database, mapping: SchemaMapping) -> None:
        self.database = database
        self.mapping = mapping
        # The snapshot store ("also stored in the normal peer instance but
        # in a separate database"): global table -> last extracted rows.
        self._snapshots: Dict[str, List[tuple]] = {}

    # ------------------------------------------------------------------
    # Initial extraction
    # ------------------------------------------------------------------
    def initial_load(
        self,
        local_table: str,
        local_columns: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> SnapshotDelta:
        """First extraction of one local table into the peer database."""
        global_table, transformed = self.mapping.transform(
            local_table, local_columns, rows
        )
        if global_table in self._snapshots:
            raise SchemaMappingError(
                f"{global_table!r} already loaded; use refresh()"
            )
        self.database.table(global_table).insert_many(transformed)
        # One list for the store and the delta; its tuples are, where
        # coercion changed nothing, the table's own too.
        self._snapshots[global_table] = transformed
        return SnapshotDelta(global_table, inserted=transformed)

    # ------------------------------------------------------------------
    # Differential refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        local_table: str,
        local_columns: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> SnapshotDelta:
        """Re-extract a table and apply only the changes."""
        global_table, transformed = self.mapping.transform(
            local_table, local_columns, rows
        )
        old_snapshot = self._snapshots.get(global_table)
        if old_snapshot is None:
            raise SchemaMappingError(
                f"{global_table!r} was never loaded; use initial_load()"
            )
        # Fingerprint-sort-merge only what the snapshots do not share.
        old_keys = list(map(_cancel_key, old_snapshot))
        new_keys = list(map(_cancel_key, transformed))
        inserted, deleted = snapshot_diff(
            _residue(old_snapshot, old_keys, Counter(new_keys)),
            _residue(transformed, new_keys, Counter(old_keys)),
        )
        # Atomic: a delta the table refuses leaves it and the snapshot as is.
        self.database.table(global_table).apply_delta(deleted, inserted)
        self._snapshots[global_table] = transformed
        return SnapshotDelta(global_table, inserted=inserted, deleted=deleted)

    def snapshot_of(self, global_table: str) -> Optional[List[tuple]]:
        snapshot = self._snapshots.get(global_table.lower())
        return list(snapshot) if snapshot is not None else None

    def export_snapshots(self) -> Dict[str, List[tuple]]:
        """The whole snapshot store (for EBS backups: the snapshots live
        "in the normal peer instance but in a separate database", §4.2)."""
        return {table: list(rows) for table, rows in self._snapshots.items()}

    def restore_snapshots(self, snapshots: Dict[str, List[tuple]]) -> None:
        """Reinstall a backed-up snapshot store after fail-over recovery."""
        self._snapshots = {
            table: list(rows) for table, rows in snapshots.items()
        }
