"""The column batch: the one shape a result has between plan boundaries.

A :class:`ColumnBatch` is what leaves a data owner's plan, is masked by the
access controller, filtered by the bloom join, priced for the wire, and
scanned at the query peer (§5.2) — column vectors end to end, so typed data
is never transposed into tuples and back, re-coerced or re-priced on the
way.  It is **immutable**: masking and selection build new batches, and the
wire size and the rows' text widths are computed once.

A batch's vectors may be *shared*: a dense scan passes the owner table's
live column mirror through without copying, and an unrestricted column
passes through masking the same way.  Hence the two rules every consumer
follows: never write into a vector, and copy before keeping one past the
query (``MemTable`` and ``Table.insert_many`` do; a :class:`ColumnRelation`
only reads them while the query runs).  An owner's later inserts extend its
mirror in place, which is why a batch carries its own ``count`` and bounds
everything it derives by it.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import is_, itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.errors import SqlError, SqlExecutionError
from repro.sqlengine.types import value_byte_size

#: Exact types (no subclasses) that are numbers to arithmetic and pricing.
NUMERIC_KINDS = {int, float, bool}


def wire_size(vector: Sequence[object]) -> int:
    """Sum of the untyped :func:`value_byte_size` over one vector.

    The one wire pricer: every byte count the simulated network is charged
    comes from here.  The kinds of value present decide the formula, so a
    column costs a few C-level passes instead of a Python call per value:
    numbers are 8 bytes, NULL is 1, and anything else is the length of its
    text plus 4 — which makes a nested value such as the join shuffle's
    ``(tag, row)`` cost ``len(str(row)) + 4``.  Only a column that mixes
    numbers with other kinds is priced value by value.
    """
    kinds = set(map(type, vector))
    nulls = vector.count(None) if type(None) in kinds else 0
    kinds.discard(type(None))
    present = len(vector) - nulls
    if kinds <= NUMERIC_KINDS:
        return 8 * present + nulls
    if any(issubclass(kind, (int, float)) for kind in kinds):
        return sum(map(value_byte_size, vector))
    values = (value for value in vector if value is not None) if nulls else vector
    texts = values if kinds == {str} else map(str, values)
    return sum(map(len, texts)) + 4 * present + nulls


def value_sizes(vector: Sequence[object]) -> List[int]:
    """Each value's :func:`wire_size`, by the same kind dispatch:
    ``sum(value_sizes(v)) == wire_size(v)``, for pricing values that are
    routed one by one (a MapReduce shuffle's)."""
    kinds = set(map(type, vector))
    kinds.discard(type(None))
    if kinds <= NUMERIC_KINDS:
        return [1 if value is None else 8 for value in vector]
    if any(issubclass(kind, (int, float)) for kind in kinds):
        return list(map(value_byte_size, vector))
    text = len if kinds == {str} else (lambda value: len(str(value)))
    return [1 if value is None else text(value) + 4 for value in vector]


def text_widths(rows: Sequence[Tuple[object, ...]]) -> List[int]:
    """Each row's text width, ``len(str(row))``: what a shuffled row is
    priced by.  Measured once per batch (:attr:`ColumnBatch.widths`) and
    derived after that (:func:`concat_text_offset`)."""
    return list(map(len, map(str, rows)))


def concat_text_offset(left: int, right: int) -> int:
    """``len(str(l + r)) - len(str(l)) - len(str(r))`` for tuples of
    ``left`` and ``right`` values.

    A tuple's text is its values' reprs joined by ", " in parentheses,
    ``()`` when empty and ``(x,)`` for one value: ``c(n)`` = 2, 3 and
    ``2n`` characters around the reprs.  So a joined row's width follows
    from its halves' without a ``str()``.
    """
    def around(n: int) -> int:
        return 2 if n == 0 else 3 if n == 1 else 2 * n

    return around(left + right) - around(left) - around(right)


def rows_from_vectors(
    vectors: Sequence[Sequence[object]], count: int
) -> List[Tuple[object, ...]]:
    """The first ``count`` positions of ``vectors`` as row tuples."""
    if not vectors:
        return [()] * count
    return list(islice(zip(*vectors), count))


def vectors_from_rows(
    rows: Sequence[Tuple[object, ...]], width: int
) -> List[List[object]]:
    """``rows`` (each ``width`` wide) as one list per column."""
    if not rows:
        return [[] for _ in range(width)]
    return [list(column) for column in zip(*rows)]


class LazyColumns:
    """Column vectors laid side by side, each gathered on first use.

    What an index scan, a join, a narrowing filter and a sort hand
    downstream: operators index the columns they read, so a three-table
    join that projects three of thirty columns pays for those and its keys.
    A *part* is ``(width, source, index, padded)``: column ``k`` of the part
    is ``source[k]`` gathered at the positions in ``index`` (``-1`` gathers
    NULL when ``padded``: a LEFT JOIN's unmatched rows).  With ``source``
    None the index holds row tuples and column ``k`` is their ``k``-th
    field.  Sources are never written to, and nothing lazy outlives the
    plan: :class:`ColumnBatch` builds every column it is handed.
    """

    def __init__(self, parts: Sequence[Tuple[int, object, Sequence, bool]]) -> None:
        self._parts = list(parts)
        self._vectors: List[Optional[List[object]]] = [None] * sum(
            part[0] for part in self._parts
        )

    @classmethod
    def over_rows(cls, rows: List[Tuple[object, ...]], width: int) -> "LazyColumns":
        return cls([(width, None, rows, False)])

    def __len__(self) -> int:
        return len(self._vectors)

    def __getitem__(self, position: int) -> List[object]:
        vector = self._vectors[position]  # IndexError ends an iteration
        if vector is None:
            local = position
            for width, source, index, padded in self._parts:
                if local < width:
                    break
                local -= width
            if source is None:
                vector = list(map(itemgetter(local), index))
            elif padded:
                column = source[local]
                vector = [None if i < 0 else column[i] for i in index]
            else:
                vector = list(map(source[local].__getitem__, index))
            self._vectors[position] = vector
        return vector

    def __add__(self, other: "LazyColumns") -> "LazyColumns":
        return LazyColumns(self._parts + other._parts)

    def take(self, positions: Sequence[int]) -> "LazyColumns":
        """The rows at ``positions``: composed into each part's index, so a
        chain of joins gathers a column once, from its first source."""
        return LazyColumns(
            [
                (width, source, list(map(index.__getitem__, positions)), padded)
                for width, source, index, padded in self._parts
            ]
        )


def gather(
    cols: Sequence[Sequence[object]], positions: Sequence[int], padded: bool = False
) -> LazyColumns:
    """``cols`` at ``positions`` (``-1``: NULL, when ``padded``), lazily.

    A padded gather over a lazy set nests instead of composing, since
    ``-1`` must not index into a part.
    """
    if padded or not isinstance(cols, LazyColumns):
        return LazyColumns([(len(cols), cols, positions, padded)])
    return cols.take(positions)


class ColumnBatch:
    """Output column names, one vector per column, and a row count."""

    def __init__(
        self,
        columns: Sequence[str],
        vectors: Optional[Sequence[Sequence[object]]],
        count: int,
    ) -> None:
        self.columns = list(columns)
        self.count = count
        self._vectors: Optional[List[Sequence[object]]] = (
            None if vectors is None else list(vectors)
        )
        self._rows: Optional[List[Tuple[object, ...]]] = None
        self._byte_size: Optional[int] = None
        self._widths: Optional[List[int]] = None

    @classmethod
    def from_rows(
        cls, columns: Sequence[str], rows: Sequence[Tuple[object, ...]]
    ) -> "ColumnBatch":
        """A batch over row tuples (the row executors' and loaders' shape).

        The rows are kept as the batch's ``rows``; vectors are transposed
        from them only if somebody asks.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        batch = cls(columns, None, len(rows))
        batch._rows = rows
        return batch

    def __len__(self) -> int:
        return self.count

    @property
    def vectors(self) -> List[Sequence[object]]:
        """The column vectors, each exactly ``count`` long.  Read-only."""
        vectors = self._vectors
        if vectors is None:
            if len(set(map(len, self._rows))) > 1:
                raise SqlExecutionError("rows of one batch differ in width")
            vectors = self._vectors = vectors_from_rows(
                self._rows, len(self.columns)
            )
        elif any(len(vector) != self.count for vector in vectors):
            # A shared owner mirror grew in place since the scan; inserts
            # only append, so this batch is still its first ``count`` values.
            vectors = self._vectors = [vector[: self.count] for vector in vectors]
        return vectors

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        """The batch as row tuples: one transpose, on first use."""
        if self._rows is None:
            self._rows = rows_from_vectors(self._vectors, self.count)
        return self._rows

    @property
    def byte_size(self) -> int:
        """Approximate wire size: untyped, so a DATE costs ``len + 4``."""
        if self._byte_size is None:
            self._byte_size = sum(map(wire_size, self.vectors))
        return self._byte_size

    @property
    def widths(self) -> List[int]:
        """Each row's :func:`text_widths`, measured on first use.  Read-only."""
        if self._widths is None:
            self._widths = text_widths(self.rows)
        return self._widths

    def take(self, positions: Sequence[int]) -> "ColumnBatch":
        """The rows at ``positions`` (increasing) as a new batch."""
        if len(positions) == self.count:
            return self
        return ColumnBatch(
            self.columns,
            [[vector[i] for i in positions] for vector in self.vectors],
            len(positions),
        )


class ColumnRelation:
    """Batches as one read-only table.

    It answers what the planner and the vectorized executor ask of a
    catalogue entry — ``schema``, ``index_on``, ``column_data()`` and
    ``len`` — with no row store, no mirror and no index: the query peer's
    final plan scans its fetched partitions through one per table binding
    (§5.2).  The vectors are the batches' own, concatenated once if there
    are several, and type-checked as a write into a table checks them: a bad
    value raises the first bad row's error, and ``retyped`` says whether
    the check replaced a vector.  A vector may be shared with the batch's
    producer, so the batch rule holds: never write into one.
    """

    def __init__(self, schema, batches: Sequence[ColumnBatch]) -> None:
        given = batches[0].vectors if len(batches) == 1 else [
            list(chain.from_iterable(batch.vectors[k] for batch in batches))
            for k in range(len(schema.columns))
        ]
        try:
            self._vectors = schema.coerce_columns(given)
        except SqlError:
            for row in zip(*given):  # row-major, only to raise
                schema.coerce_row(row)
            raise
        self.schema = schema
        self.retyped = not all(map(is_, self._vectors, given))
        self._count = sum(map(len, batches))

    def __len__(self) -> int:
        return self._count

    def column_data(self) -> Sequence[Sequence[object]]:
        return self._vectors

    def index_on(self, column: str) -> None:
        return None
