"""Table schemas and column definitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlCatalogError
from repro.sqlengine.types import ColumnType


@dataclass(frozen=True)
class Column:
    """A column definition."""

    name: str
    column_type: ColumnType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SqlCatalogError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class TableSchema:
    """A table definition: ordered columns plus an optional primary key."""

    name: str
    columns: Tuple[Column, ...]
    primary_key: Optional[str] = None
    #: Lower-cased column name -> position, built once: name lookups are O(1).
    _positions: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[str] = None,
    ) -> None:
        if not name or not name.isidentifier():
            raise SqlCatalogError(f"invalid table name: {name!r}")
        columns = tuple(columns)
        if not columns:
            raise SqlCatalogError(f"table {name!r} needs at least one column")
        positions: Dict[str, int] = {}
        for column in columns:
            lowered = column.name.lower()
            if lowered in positions:
                raise SqlCatalogError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            positions[lowered] = len(positions)
        if primary_key is not None and primary_key.lower() not in positions:
            raise SqlCatalogError(
                f"primary key {primary_key!r} is not a column of {name!r}"
            )
        object.__setattr__(self, "name", name.lower())
        object.__setattr__(self, "columns", columns)
        object.__setattr__(
            self,
            "primary_key",
            primary_key.lower() if primary_key is not None else None,
        )
        object.__setattr__(self, "_positions", positions)

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._positions

    def column_index(self, name: str) -> int:
        position = self._positions.get(name.lower())
        if position is None:
            raise SqlCatalogError(f"no column {name!r} in table {self.name!r}")
        return position

    def _check_width(self, width: int) -> None:
        if width != len(self.columns):
            raise SqlCatalogError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {width}"
            )

    def coerce_row(self, values: Sequence[object]) -> Tuple[object, ...]:
        """Validate one row of values against the schema."""
        self._check_width(len(values))
        coerced = []
        for column, value in zip(self.columns, values):
            if value is None and not column.nullable:
                raise SqlCatalogError(
                    f"column {column.name!r} of {self.name!r} is NOT NULL"
                )
            coerced.append(column.column_type.coerce(value))
        return tuple(coerced)

    def coerce_columns(
        self, vectors: Sequence[Sequence[object]]
    ) -> List[Sequence[object]]:
        """Column-major :meth:`coerce_row`: one validated vector per column.

        A vector that already holds only its column's type comes back as the
        same object (see :meth:`ColumnType.coerce_vector`); only a column
        that fails that check pays per-value coercion, so nothing mistyped
        is accepted and typed data is never re-coerced.
        """
        self._check_width(len(vectors))
        if len(set(map(len, vectors))) > 1:
            raise SqlCatalogError(
                f"column vectors for {self.name!r} differ in length"
            )
        coerced = []
        for column, vector in zip(self.columns, vectors):
            if not column.nullable and None in vector:
                raise SqlCatalogError(
                    f"column {column.name!r} of {self.name!r} is NOT NULL"
                )
            coerced.append(column.column_type.coerce_vector(vector))
        return coerced

    def vectors_byte_size(self, vectors: Sequence[Sequence[object]]) -> int:
        """Typed size of column vectors: the sum of their rows' sizes."""
        self._check_width(len(vectors))
        return sum(
            column.column_type.vector_byte_size(vector)
            for column, vector in zip(self.columns, vectors)
        )
