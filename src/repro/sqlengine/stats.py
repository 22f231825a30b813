"""Per-table and per-column statistics.

These are the raw inputs to the BestPeer++ histogram module and the
pay-as-you-go cost model: row counts, byte sizes, per-column min/max and
distinct-value estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sqlengine.table import Table


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column."""

    column: str
    null_count: int
    distinct_count: int
    minimum: Optional[object]
    maximum: Optional[object]


@dataclass(frozen=True)
class TableStats:
    """Summary statistics for one table."""

    table: str
    row_count: int
    byte_size: int
    columns: Dict[str, ColumnStats]

    @property
    def avg_row_bytes(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.byte_size / self.row_count


def column_bounds(table: Table, column: str) -> Tuple[object, object]:
    """One column's ``(minimum, maximum)`` over its non-NULL values — what
    :func:`collect_table_stats` reports, without summarizing the others."""
    position = table.schema.column_index(column)
    values = [row[position] for row in table.rows() if row[position] is not None]
    return (min(values), max(values)) if values else (None, None)


def collect_table_stats(table: Table) -> TableStats:
    """Scan ``table`` once and summarize every column."""
    column_names = table.schema.column_names
    nulls = [0] * len(column_names)
    distinct = [set() for _ in column_names]
    minima: list = [None] * len(column_names)
    maxima: list = [None] * len(column_names)

    for row in table.rows():
        for position, value in enumerate(row):
            if value is None:
                nulls[position] += 1
                continue
            distinct[position].add(value)
            if minima[position] is None or value < minima[position]:
                minima[position] = value
            if maxima[position] is None or value > maxima[position]:
                maxima[position] = value

    columns = {
        name.lower(): ColumnStats(
            column=name.lower(),
            null_count=nulls[position],
            distinct_count=len(distinct[position]),
            minimum=minima[position],
            maximum=maxima[position],
        )
        for position, name in enumerate(column_names)
    }
    return TableStats(
        table=table.schema.name,
        row_count=len(table),
        byte_size=table.byte_size,
        columns=columns,
    )
