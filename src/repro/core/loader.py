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

Substitution for step 1 (DESIGN.md §2): only the loader writes a loaded
table, so the table holds exactly the last extraction, coerced through its
schema.  The loaded table *is* the snapshot; no second copy is kept.  A
refresh coerces the new extraction the same way and diffs the values the
table holds, so a write behind the loader is part of what the next refresh
diffs against, and that refresh brings the table back to the extraction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set, Tuple, Union

from repro.core.fingerprint import fingerprint_tuple
from repro.core.schema_mapping import SchemaMapping
from repro.errors import SchemaMappingError, SqlError
from repro.sqlengine.batch import ColumnBatch, vectors_from_rows
from repro.sqlengine.database import Database
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.types import exact_key


@dataclass
class SnapshotDelta:
    """The outcome of one load or differential refresh of one global table.

    Read-only.  An initial load's ``inserted`` is the loaded
    :class:`ColumnBatch` (``len`` and truth read as a list's; ``.rows``
    builds the tuples); a refresh's two lists hold coerced row tuples.
    """

    table: str
    inserted: Union[List[tuple], ColumnBatch] = field(default_factory=list)
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


def _residue(rows: Iterable[tuple], keys: list, unmatched: Counter) -> List[tuple]:
    """``rows``, in order, minus one per equal-keyed row of the other side
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

    def __init__(
        self, database: Database, mapping: SchemaMapping, loaded: Iterable[str] = ()
    ) -> None:
        self.database = database
        self.mapping = mapping
        # The global tables loaded so far.  Each one is its own snapshot: it
        # holds exactly the coerced last extraction (module docstring).
        self.loaded: Set[str] = set(loaded)

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
        global_table, batch = self.mapping.transform(
            local_table, local_columns, rows
        )
        if global_table in self.loaded:
            raise SchemaMappingError(
                f"{global_table!r} already loaded; use refresh()"
            )
        self.database.table(global_table).insert_many(batch)
        self.loaded.add(global_table)
        return SnapshotDelta(global_table, inserted=batch)

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
        global_table, batch = self.mapping.transform(
            local_table, local_columns, rows
        )
        if global_table not in self.loaded:
            raise SchemaMappingError(
                f"{global_table!r} was never loaded; use initial_load()"
            )
        table = self.database.table(global_table)
        # Fingerprint-sort-merge only what the table and the extraction do
        # not share.  The table's rows are zipped twice, for their keys and
        # for the residue, so no old row outlives its key.  A new row that
        # cancels is exactly some table row, so it is coerced already: only
        # the new residue is coerced, and every row the schema refuses is in
        # it, in extraction order.
        old_keys = list(map(exact_key, table.rows()))
        new_keys = list(map(exact_key, batch.rows))
        inserted, deleted = snapshot_diff(
            _residue(table.rows(), old_keys, Counter(new_keys)),
            _coerced(table.schema, _residue(batch.rows, new_keys, Counter(old_keys))),
        )
        # Atomic: a delta the table refuses leaves it as it was.
        table.apply_delta(deleted, inserted)
        return SnapshotDelta(global_table, inserted=inserted, deleted=deleted)


def _coerced(schema: TableSchema, rows: List[tuple]) -> List[tuple]:
    """``rows`` as the table would store them.  A bad row raises what
    :meth:`Table.insert_many` would raise for it first."""
    try:
        vectors = schema.coerce_columns(vectors_from_rows(rows, len(schema.columns)))
    except SqlError:
        for row in rows:  # only to raise: the first bad row's error
            schema.coerce_row(row)
        raise
    return list(zip(*vectors))
