"""Row storage: tables and MemTables.

A :class:`Table` stores its rows as one list per column, in insertion order:
a row id is the row's position.  The vectorized executor scans those lists
as they are; row tuples are derived only for the row oracle, DML and tests.
Appends (:meth:`Table.insert`, :meth:`Table.insert_many`) are the only
writes that extend a list in place; every other write builds new lists, so
a scan's batch, a memoised result or a backup that holds the old ones keeps
reading the rows it was given.  A write that removes rows moves the rows
after them up, and rebuilds each index once.  Every bulk write — the
loader's initial load and refresh, a HadoopDB worker load, a peer restored
from its backup, a multi-row SQL ``INSERT``, a staging spill — enters
through :meth:`Table.insert_many`, which validates and prices the batch
column by column; :meth:`Table.insert` is the one-row door.

A :class:`MemTable` is the bounded in-memory buffer the paper's query
executor uses on the query-submitting peer: "the peer P creates a set of
MemTables to hold the data retrieved from other peers and bulk inserts these
data into the local MySQL when the MemTable is full" (Section 5.2).  The
basic engine counts its spills without running it; it is their oracle.
"""

from __future__ import annotations

import collections
from itertools import compress
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
from repro.sqlengine.batch import ColumnBatch, rows_from_vectors
from repro.sqlengine.indexes import OrderedIndex
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.types import exact_key


class Table:
    """One list per column plus the indexes over them."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: List[List[object]] = [[] for _ in schema.columns]
        self._byte_size = 0
        #: Monotonic counter bumped once by every write (rows or indexes).
        #: Plan caches key on it, so plans stay valid even when loaders
        #: mutate the table directly instead of going through SQL.
        self.version = 0
        self.indexes: Dict[str, OrderedIndex] = {}
        if schema.primary_key is not None:
            self.create_index(
                f"pk_{schema.name}", schema.primary_key, unique=True
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns[0])

    @property
    def byte_size(self) -> int:
        """Approximate size of all rows in bytes."""
        return self._byte_size

    def rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate the rows as tuples, in insertion order."""
        return zip(*self._columns)

    def row_by_id(self, row_id: int) -> Tuple[object, ...]:
        if row_id < 0 or row_id >= len(self):
            raise SqlExecutionError(f"row id out of range: {row_id}")
        return tuple(column[row_id] for column in self._columns)

    def rows_by_ids(self, row_ids: Sequence[int]) -> List[Tuple[object, ...]]:
        """The rows at ``row_ids``, gathered column by column; the first id
        out of range raises what :meth:`row_by_id` raises."""
        if row_ids and (min(row_ids) < 0 or max(row_ids) >= len(self)):
            return list(map(self.row_by_id, row_ids))
        return rows_from_vectors(
            [list(map(column.__getitem__, row_ids)) for column in self._columns],
            len(row_ids),
        )

    def row_ids(self) -> range:
        return range(len(self))

    def column_data(self) -> List[List[object]]:
        """The store itself: ``column_data()[k][i]`` is the ``k``-th value
        of row ``i``.  Read it, never write into it; an append extends
        these lists, any other write replaces them."""
        return self._columns

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[object]) -> int:
        """Insert one row; returns its row id."""
        row = self.schema.coerce_row(values)
        vectors = [[value] for value in row]
        # Validate unique indexes before touching any state so a violation
        # leaves the table unchanged.
        self._check_unique(vectors)
        return self._append(vectors)[0]

    def insert_many(
        self, rows: Union[ColumnBatch, Iterable[Sequence[object]]]
    ) -> List[int]:
        """Bulk-append ``rows`` atomically; returns their row ids.

        The one bulk-write door: rows arrive as a :class:`ColumnBatch` or are
        wrapped into one, every column is validated and priced as a whole
        (:meth:`TableSchema.coerce_columns`, ``vectors_byte_size``), unique
        keys are proven on the key vectors, then one append per column (a
        copy: the caller's vectors are never kept), one mutation-version
        bump and one bulk insert per index.  A batch with a bad row leaves
        the table unchanged and raises what inserting the rows one by one
        would have raised first.
        """
        return self._append(self._validated(rows))

    def _validated(
        self,
        rows: Union[ColumnBatch, Iterable[Sequence[object]]],
        leaving: frozenset = frozenset(),
    ) -> List[Sequence[object]]:
        """``rows`` proven fit to join the table once rows ``leaving`` left,
        as coerced column vectors."""
        batch = (
            rows
            if isinstance(rows, ColumnBatch)
            else ColumnBatch.from_rows(self.schema.column_names, rows)
        )
        try:
            vectors = self.schema.coerce_columns(batch.vectors)
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
        return vectors

    def _append(self, vectors: List[Sequence[object]]) -> List[int]:
        """Write validated rows at the end, in place: cannot refuse."""
        first_id = len(self)
        row_ids = list(range(first_id, first_id + len(vectors[0])))
        if not row_ids:
            return []
        for column, values in zip(self._columns, vectors):
            column.extend(values)
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
        """Delete the row at ``row_id``; the rows after it move up one."""
        self.row_by_id(row_id)  # in range, or raise
        self._rewrite([row_id])

    def apply_delta(
        self, deleted: Sequence[tuple], inserted: Sequence[Sequence[object]]
    ) -> List[int]:
        """Atomically delete one copy of each ``deleted`` row (the first one
        equal to it in type and value, so ``0.0`` never takes ``-0.0``'s
        place; all found in one pass) and append ``inserted``; returns the
        new row ids.  Everything is validated before the first write: every
        victim found, the new rows' unique keys checked against the table
        *minus* the victims (an update of one key passes).  One version bump."""
        if not deleted:
            return self.insert_many(inserted)  # nothing to find: no pass
        candidates = set(deleted)  # ``==`` first, the exact key on a hit
        wanted = collections.Counter(map(exact_key, deleted))
        victims = []
        for row_id, row in enumerate(self.rows()):
            if row in candidates:
                key = exact_key(row)
                if wanted.get(key):
                    wanted[key] -= 1
                    victims.append(row_id)
        if +wanted:  # the copies no row matched
            missing = next(row for row in deleted if wanted[exact_key(row)] > 0)
            raise SqlExecutionError(f"no live row to delete: {missing!r}")
        vectors = self._validated(inserted, frozenset(victims))
        self._rewrite(victims, vectors)
        return list(range(len(self) - len(vectors[0]), len(self)))

    def delete_where(self, predicate: Callable[[Tuple[object, ...]], bool]) -> int:
        """Delete all rows matching ``predicate``; returns the count."""
        victims = [row_id for row_id, row in enumerate(self.rows()) if predicate(row)]
        if victims:
            self._rewrite(victims)
        return len(victims)

    def _rewrite(
        self, victims: Sequence[int], appended: Optional[List[Sequence[object]]] = None
    ) -> None:
        """Drop the rows at ``victims`` (distinct ids) and append the
        validated ``appended`` vectors, into new lists: the rows after a
        victim move up, so each index is rebuilt once.  Cannot refuse."""
        keep = [True] * len(self)
        for row_id in victims:
            keep[row_id] = False
        gone = [list(map(column.__getitem__, victims)) for column in self._columns]
        self._columns = [list(compress(column, keep)) for column in self._columns]
        self._byte_size -= self.schema.vectors_byte_size(gone)
        if appended is not None:
            for column, values in zip(self._columns, appended):
                column.extend(values)
            self._byte_size += self.schema.vectors_byte_size(appended)
        self.indexes = {
            name: self._index_over(name, index.column, index.unique)
            for name, index in self.indexes.items()
        }
        self.version += 1

    def update_rows(self, updates: Iterable[Tuple[int, Sequence[object]]]) -> int:
        """Atomically rewrite rows where they stand; returns how many.

        ``updates`` yields ``(row_id, new values)``, row ids distinct, and is
        consumed — each row coerced as it arrives — before the first write:
        an error it raises half-way, a coercion error or a unique-key
        collision leaves the table unchanged.  Unique keys are checked
        against the table *minus* the rewritten rows (rows may keep or trade
        keys).  Row ids and row order stay; the columns are new lists; one
        version bump.
        """
        staged = [
            (row_id, self.row_by_id(row_id), self.schema.coerce_row(values))
            for row_id, values in updates
        ]
        if not staged:
            return 0
        row_ids, olds, news = zip(*staged)
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
        self._columns = [list(column) for column in self._columns]
        for row_id, new in zip(row_ids, news):
            for column, value in zip(self._columns, new):
                column[row_id] = value
        self._byte_size += self.schema.vectors_byte_size(
            list(zip(*news))
        ) - self.schema.vectors_byte_size(list(zip(*olds)))
        self.version += 1
        return len(staged)

    def truncate(self) -> None:
        self._rewrite(self.row_ids())

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
        index = self.indexes[name] = self._index_over(name, column, unique)
        self.version += 1
        return index

    def _index_over(self, name: str, column: str, unique: bool) -> OrderedIndex:
        """A new index on ``column``, holding every row."""
        index = OrderedIndex(name, column, unique)
        values = self._columns[self.schema.column_index(column)]
        index.insert_many(zip(values, range(len(values))))
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
