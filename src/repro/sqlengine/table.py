"""Row storage: tables and MemTables.

A :class:`Table` stores rows as tuples in insertion order with tombstoned
deletes, maintains its primary/secondary indexes, and tracks approximate byte
sizes so the distributed engines can price network transfers.  Every bulk
write — the loader's initial load and refresh, a HadoopDB worker load, a
peer restored from its backup, a multi-row SQL ``INSERT``, a staging spill —
enters through :meth:`Table.insert_many`, which validates and prices the
batch column by column; :meth:`Table.insert` is the one-row door.

A :class:`MemTable` is the bounded in-memory buffer the paper's query
executor uses on the query-submitting peer: "the peer P creates a set of
MemTables to hold the data retrieved from other peers and bulk inserts these
data into the local MySQL when the MemTable is full" (Section 5.2).  The
basic engine counts its spills without running it; it is their oracle.
"""

from __future__ import annotations

import collections
import operator
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import SqlCatalogError, SqlError, SqlExecutionError
from repro.sqlengine.batch import ColumnBatch
from repro.sqlengine.indexes import OrderedIndex
from repro.sqlengine.schema import TableSchema


class Table:
    """Heap storage for one table plus its indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: List[Optional[Tuple[object, ...]]] = []
        self._live_count = 0
        self._byte_size = 0
        #: Monotonic counter bumped on every mutation (rows or indexes).
        #: Plan caches key on it, so plans stay valid even when loaders
        #: mutate the table directly instead of going through SQL.
        self.version = 0
        #: Lazily materialized column-major mirror of the live rows, used by
        #: the vectorized executor.  Valid only while
        #: ``_column_store_version == version``; insert paths append to it
        #: incrementally, destructive mutations drop it.
        self._column_store: Optional[List[List[object]]] = None
        self._column_store_version = -1
        self.indexes: Dict[str, OrderedIndex] = {}
        if schema.primary_key is not None:
            self.create_index(
                f"pk_{schema.name}", schema.primary_key, unique=True
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live_count

    @property
    def byte_size(self) -> int:
        """Approximate size of all live rows in bytes."""
        return self._byte_size

    def rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate live rows in insertion order."""
        for row in self._rows:
            if row is not None:
                yield row

    def row_by_id(self, row_id: int) -> Tuple[object, ...]:
        if row_id < 0 or row_id >= len(self._rows):
            raise SqlExecutionError(f"row id out of range: {row_id}")
        row = self._rows[row_id]
        if row is None:
            raise SqlExecutionError(f"row {row_id} was deleted")
        return row

    def rows_by_ids(self, row_ids: Sequence[int]) -> List[Tuple[object, ...]]:
        """The rows at ``row_ids``, gathered in one C-level pass.

        Proven good on the vector (in range, no tombstone — which a table
        without tombstones needs no pass over the rows to know); otherwise
        :meth:`row_by_id` raises for the first bad id, as a per-id loop would.
        """
        try:
            rows = list(map(self._rows.__getitem__, row_ids))
            bad = self._live_count != len(self._rows) and None in rows
        except IndexError:
            bad = True
        if bad or (row_ids and min(row_ids) < 0):
            rows = list(map(self.row_by_id, row_ids))
        return rows

    def row_ids(self) -> Iterator[int]:
        for row_id, row in enumerate(self._rows):
            if row is not None:
                yield row_id

    def column_data(self) -> List[List[object]]:
        """Column-major view of the live rows, cached per table version.

        ``column_data()[k][i]`` is the ``k``-th attribute of the ``i``-th
        live row in insertion order (tombstones compacted away, so positions
        are *not* row ids).  The cache rebuilds lazily after destructive
        mutations; the insert paths extend it incrementally so repeated
        scans of an append-mostly table never re-transpose.
        """
        if self._column_store_version != self.version:
            if self._live_count:
                self._column_store = [list(col) for col in zip(*self.rows())]
            else:
                self._column_store = [[] for _ in self.schema.columns]
            self._column_store_version = self.version
        assert self._column_store is not None
        return self._column_store

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[object]) -> int:
        """Insert one row; returns its row id."""
        row = self.schema.coerce_row(values)
        row_id = len(self._rows)
        # Validate unique indexes before touching any state so a violation
        # leaves the table unchanged.
        self._check_unique(list(zip(row)))
        self._rows.append(row)
        self._live_count += 1
        self._byte_size += self._row_bytes(row)
        if self._column_store is not None and self._column_store_version == self.version:
            for column_values, value in zip(self._column_store, row):
                column_values.append(value)
            self._column_store_version = self.version + 1
        self.version += 1
        for index in self.indexes.values():
            index.insert(row[self.schema.column_index(index.column)], row_id)
        return row_id

    def insert_many(
        self, rows: Union[ColumnBatch, Iterable[Sequence[object]]]
    ) -> List[int]:
        """Bulk-append ``rows`` atomically; returns their row ids.

        The one bulk-write door: rows arrive as a :class:`ColumnBatch` or are
        wrapped into one, every column is validated and priced as a whole
        (:meth:`TableSchema.coerce_columns`, ``vectors_byte_size``), unique
        keys are proven on the key vectors, then one append, one
        mutation-version bump and one bulk insert per index.  A batch with a
        bad row leaves the table unchanged and raises what inserting the rows
        one by one would have raised first.

        Rows that coercion left as they came, given as tuples, are stored as
        those very tuples (the loader's snapshot store holds them too;
        tuples are immutable).  A table whose mirror is current extends it;
        otherwise the mirror waits for :meth:`column_data`, on first scan.
        """
        return self._append(*self._validated(rows))

    def _validated(
        self,
        rows: Union[ColumnBatch, Iterable[Sequence[object]]],
        leaving: frozenset = frozenset(),
    ) -> Tuple[List[Sequence[object]], List[Tuple[object, ...]]]:
        """``rows`` proven fit to join the table once rows ``leaving`` left:
        coerced column vectors and the same as row tuples."""
        batch = (
            rows
            if isinstance(rows, ColumnBatch)
            else ColumnBatch.from_rows(self.schema.column_names, rows)
        )
        try:
            given = batch.vectors
            vectors = self.schema.coerce_columns(given)
            self._check_unique(vectors, leaving)
        except SqlError:
            # Row-major, only to raise: the first bad row's own error — a
            # key taken among the rows before the first that does not coerce
            # (the ``finally``), else that row's.
            coerced = []
            try:
                for row in batch.rows:
                    coerced.append(self.schema.coerce_row(row))
            finally:
                self._check_unique(list(zip(*coerced)), leaving)
            raise
        if all(map(operator.is_, vectors, given)) and (
            set(map(type, batch.rows)) <= {tuple}
        ):
            return vectors, batch.rows
        return vectors, list(zip(*vectors))

    def _append(
        self, vectors: List[Sequence[object]], coerced: List[Tuple[object, ...]]
    ) -> List[int]:
        """Write validated rows: cannot refuse."""
        if not coerced:
            return []
        first_id = len(self._rows)
        row_ids = list(range(first_id, first_id + len(coerced)))
        self._rows.extend(coerced)
        if self._column_store is not None and self._column_store_version == self.version:
            for column_values, values in zip(self._column_store, vectors):
                column_values.extend(values)
            self._column_store_version = self.version + 1
        self._live_count += len(coerced)
        self._byte_size += self.schema.vectors_byte_size(vectors)
        self.version += 1
        for index in self.indexes.values():
            index.insert_many(
                zip(vectors[self.schema.column_index(index.column)], row_ids)
            )
        return row_ids

    def _check_unique(
        self, vectors: Sequence[Sequence[object]], leaving: frozenset = frozenset()
    ) -> None:
        """Raise unless rows with these column vectors may join the table
        once rows ``leaving`` left.  Distinct keys bound for empty unique
        indexes are proven whole; otherwise the rows are walked, and the
        first one whose key is taken names it."""
        unique = [
            (index, vectors[self.schema.column_index(index.column)])
            for index in self.indexes.values()
            if index.unique and vectors
        ]
        if not any(
            index.distinct_keys() or len(set(keys)) != len(keys)
            for index, keys in unique
        ):
            return
        seen = [set() for _ in unique]
        for row_keys in zip(*(keys for _, keys in unique)):
            for (index, _), key, earlier in zip(unique, row_keys, seen):
                if key is not None and (
                    key in earlier or not leaving.issuperset(index.lookup(key))
                ):
                    raise SqlExecutionError(
                        f"duplicate key {key!r} for unique index {index.name!r}"
                    )
                earlier.add(key)

    def delete_row(self, row_id: int) -> None:
        self._tombstone(row_id)
        self._drop_column_store()
        self.version += 1

    def _tombstone(self, row_id: int) -> None:
        row = self.row_by_id(row_id)
        for index in self.indexes.values():
            index.remove(row[self.schema.column_index(index.column)], row_id)
        self._rows[row_id] = None
        self._live_count -= 1
        self._byte_size -= self._row_bytes(row)

    def apply_delta(
        self, deleted: Sequence[tuple], inserted: Sequence[Sequence[object]]
    ) -> List[int]:
        """Atomically delete one live copy of each ``deleted`` row (the first
        equal one; all found in one pass) and append ``inserted``; returns the
        new row ids.  Everything is validated before the first write: every
        victim found, the new rows' unique keys checked against the table
        *minus* the victims (an update of one key passes).  One version bump."""
        if not deleted:
            return self.insert_many(inserted)  # nothing to find: no pass
        wanted = collections.Counter(deleted)
        victims = []
        for row_id in [i for i, row in enumerate(self._rows) if row in wanted]:
            if wanted[self._rows[row_id]]:
                wanted[self._rows[row_id]] -= 1
                victims.append(row_id)
        missing = +wanted  # the copies no live row matched
        if missing:
            raise SqlExecutionError(f"no live row to delete: {next(iter(missing))!r}")
        vectors, coerced = self._validated(inserted, frozenset(victims))
        for row_id in victims:
            self._tombstone(row_id)
        if victims:
            self._drop_column_store()
            if not coerced:
                self.version += 1
        return self._append(vectors, coerced)

    def delete_where(self, predicate: Callable[[Tuple[object, ...]], bool]) -> int:
        """Delete all rows matching ``predicate``; returns the count."""
        victims = [
            row_id
            for row_id, row in enumerate(self._rows)
            if row is not None and predicate(row)
        ]
        for row_id in victims:
            self.delete_row(row_id)
        return len(victims)

    def update_rows(self, updates: Iterable[Tuple[int, Sequence[object]]]) -> int:
        """Atomically rewrite live rows in place; returns how many.

        ``updates`` yields ``(row_id, new values)``, row ids distinct, and is
        consumed — each row coerced as it arrives — before the first write:
        an error it raises half-way, a coercion error or a unique-key
        collision leaves the table unchanged.  Unique keys are checked
        against the table *minus* the rewritten rows (rows may keep or trade
        keys).  Row ids and row order stay; one version bump.
        """
        staged = [
            (row_id, self.row_by_id(row_id), self.schema.coerce_row(values))
            for row_id, values in updates
        ]
        if not staged:
            return 0
        row_ids, _, news = zip(*staged)
        self._check_unique(list(zip(*news)), frozenset(row_ids))
        for index in self.indexes.values():
            position = self.schema.column_index(index.column)
            moved = [
                (row_id, old[position], new[position])
                for row_id, old, new in staged
                if old[position] != new[position]
            ]
            # Every old entry leaves before a new one arrives, so rows that
            # trade keys never meet in a unique index.
            for row_id, old_key, _ in moved:
                index.remove(old_key, row_id)
            for row_id, _, new_key in moved:
                index.insert(new_key, row_id)
        for row_id, old, new in staged:
            self._rows[row_id] = new
            self._byte_size += self._row_bytes(new) - self._row_bytes(old)
        self._drop_column_store()
        self.version += 1
        return len(staged)

    def truncate(self) -> None:
        self._rows.clear()
        self._live_count = 0
        self._byte_size = 0
        self._drop_column_store()
        self.version += 1
        for index in list(self.indexes.values()):
            self.indexes[index.name] = OrderedIndex(
                index.name, index.column, index.unique
            )

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, name: str, column: str, unique: bool = False) -> OrderedIndex:
        if name in self.indexes:
            raise SqlCatalogError(f"index already exists: {name!r}")
        if not self.schema.has_column(column):
            raise SqlCatalogError(
                f"cannot index unknown column {column!r} of {self.schema.name!r}"
            )
        index = OrderedIndex(name, column, unique)
        position = self.schema.column_index(column)
        for row_id, row in enumerate(self._rows):
            if row is not None:
                index.insert(row[position], row_id)
        self.indexes[name] = index
        # Index creation bumps the version without changing row content, so
        # a current column store stays current.
        if self._column_store_version == self.version:
            self._column_store_version += 1
        self.version += 1
        return index

    def index_on(self, column: str) -> Optional[OrderedIndex]:
        """Any index whose key is ``column``, preferring unique ones."""
        lowered = column.lower()
        best: Optional[OrderedIndex] = None
        for index in self.indexes.values():
            if index.column == lowered:
                if index.unique:
                    return index
                best = best or index
        return best

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop_column_store(self) -> None:
        self._column_store = None
        self._column_store_version = -1

    def _row_bytes(self, row: Tuple[object, ...]) -> int:
        return sum(
            column.column_type.byte_size(value)
            for column, value in zip(self.schema.columns, row)
        )


class MemTable:
    """A bounded in-memory staging buffer for fetched remote tuples.

    Batches gather here by column; at ``capacity_bytes`` of typed size the
    buffer spills (bulk-inserts) into the backing :class:`Table`.  Spills are
    counted so tests can verify the bulk-insert behaviour the paper describes.
    """

    def __init__(self, backing: Table, capacity_bytes: int = 100 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise SqlExecutionError(
                f"MemTable capacity must be positive: {capacity_bytes}"
            )
        self.backing = backing
        self.capacity_bytes = capacity_bytes
        self._columns: List[List[object]] = [[] for _ in backing.schema.columns]
        self.buffered_rows = self.buffered_bytes = self.spill_count = 0

    def append(self, values: Sequence[object]) -> None:
        self.extend([values])

    def extend(self, rows: Union[ColumnBatch, Sequence[Sequence[object]]]) -> None:
        if not isinstance(rows, ColumnBatch):
            rows = ColumnBatch.from_rows(self.backing.schema.column_names, rows)
        nbytes = self.backing.schema.vectors_byte_size(rows.vectors)
        if len(rows) > 1 and self.buffered_bytes + nbytes >= self.capacity_bytes:
            # Crossing the bound: row by row, to spill where a row buffer would.
            for row in rows.rows:
                self.append(row)
            return
        for column, vector in zip(self._columns, rows.vectors):
            column.extend(vector)
        self.buffered_rows += len(rows)
        self.buffered_bytes += nbytes
        if self.buffered_bytes >= self.capacity_bytes:
            self.flush()

    def flush(self) -> int:
        """Bulk-insert the buffer into the backing table; returns row count."""
        flushed = self.buffered_rows
        if flushed:
            names = self.backing.schema.column_names
            self.backing.insert_many(ColumnBatch(names, self._columns, flushed))
            self._columns = [[] for _ in names]
            self.buffered_rows = self.buffered_bytes = 0
            self.spill_count += 1
        return flushed
