"""Per-table and per-column statistics.

These are the raw inputs to the BestPeer++ histogram module and the
pay-as-you-go cost model: row counts, byte sizes, per-column min/max and
distinct-value estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    values = _present(table.column_data()[table.schema.column_index(column)])
    return (min(values), max(values)) if values else (None, None)


def _present(values: List[object]) -> List[object]:
    """``values`` without its NULLs."""
    if None not in values:
        return values
    return [value for value in values if value is not None]


def collect_table_stats(table: Table) -> TableStats:
    """Summarize every column of ``table``, one column at a time."""
    columns = {
        name.lower(): ColumnStats(
            column=name.lower(),
            null_count=len(table) - len(values),
            distinct_count=len(set(values)),
            minimum=min(values) if values else None,
            maximum=max(values) if values else None,
        )
        for name, values in zip(
            table.schema.column_names, map(_present, table.column_data())
        )
    }
    return TableStats(
        table=table.schema.name,
        row_count=len(table),
        byte_size=table.byte_size,
        columns=columns,
    )
