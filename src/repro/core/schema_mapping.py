"""Schema mapping: local production schemas -> the global shared schema.

§4.1: the mapping "consists of metadata mappings (i.e., mapping local table
definitions to global table definitions) and value mappings (i.e., mapping
local terms to global terms)" and "BestPeer++ adopts templates to facilitate
the mapping process" — one template per popular production system (SAP,
PeopleSoft) that a business tweaks instead of authoring a mapping from
scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchemaMappingError
from repro.sqlengine.batch import vectors_from_rows
from repro.sqlengine.schema import TableSchema


@dataclass
class TableMapping:
    """Metadata + value mapping for one local table."""

    local_table: str
    global_table: str
    # local column -> global column
    column_map: Dict[str, str] = field(default_factory=dict)
    # global column -> {local term -> global term}
    value_map: Dict[str, Dict[object, object]] = field(default_factory=dict)

    def map_column(self, local_column: str) -> Optional[str]:
        return self.column_map.get(local_column.lower())


class SchemaMapping:
    """The full mapping owned by one normal peer."""

    def __init__(self, global_schemas: Dict[str, TableSchema]) -> None:
        self._global_schemas = {
            name.lower(): schema for name, schema in global_schemas.items()
        }
        self._by_local: Dict[str, TableMapping] = {}

    # ------------------------------------------------------------------
    # Authoring
    # ------------------------------------------------------------------
    def add_table_mapping(self, mapping: TableMapping) -> None:
        global_table = mapping.global_table.lower()
        schema = self._global_schemas.get(global_table)
        if schema is None:
            raise SchemaMappingError(
                f"global schema has no table {mapping.global_table!r}"
            )
        for local_column, global_column in mapping.column_map.items():
            if not schema.has_column(global_column):
                raise SchemaMappingError(
                    f"global table {global_table!r} has no column "
                    f"{global_column!r} (mapped from {local_column!r})"
                )
        self._by_local[mapping.local_table.lower()] = mapping

    def mapping_for(self, local_table: str) -> TableMapping:
        mapping = self._by_local.get(local_table.lower())
        if mapping is None:
            raise SchemaMappingError(
                f"no mapping defined for local table {local_table!r}"
            )
        return mapping

    def has_mapping(self, local_table: str) -> bool:
        return local_table.lower() in self._by_local

    # ------------------------------------------------------------------
    # Transformation (the offline data flow of Fig. 2)
    # ------------------------------------------------------------------
    def transform(
        self,
        local_table: str,
        local_columns: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> Tuple[str, List[Tuple[object, ...]]]:
        """Rewrite local rows into global-schema rows.

        Unmapped local columns are dropped; unmapped global columns become
        NULL; value mappings translate local terms per column.  Returns
        ``(global_table, rows)``.
        """
        mapping = self.mapping_for(local_table)
        schema = self._global_schemas[mapping.global_table.lower()]
        positions: List[Tuple[int, int, Optional[Dict[object, object]]]] = []
        for local_position, local_column in enumerate(local_columns):
            global_column = mapping.map_column(local_column)
            if global_column is None:
                continue
            positions.append(
                (
                    local_position,
                    schema.column_index(global_column),
                    mapping.value_map.get(global_column.lower()),
                )
            )
        # Column at a time.  A row of the wrong width ends the batch where a
        # row-by-row walk would stop: the rows before it are mapped first.
        rows = rows if isinstance(rows, list) else list(rows)
        expected, stop = len(local_columns), len(rows)
        if set(map(len, rows)) - {expected}:
            stop = next(i for i, row in enumerate(rows) if len(row) != expected)
        local = vectors_from_rows(rows[:stop], expected)
        vectors: List[Sequence[object]] = [[None] * stop] * len(schema.columns)
        for local_position, global_position, value_map in positions:
            vector = local[local_position]
            if value_map is not None:
                vector = [value_map[v] if v in value_map else v for v in vector]
            vectors[global_position] = vector
        if stop < len(rows):
            raise SchemaMappingError(
                f"row width {len(rows[stop])} does not match local columns "
                f"{expected}"
            )
        transformed = list(zip(*vectors))
        return mapping.global_table.lower(), transformed


# ----------------------------------------------------------------------
# Templates (§4.1: "for each popular production system ... we provide a
# mapping template").  A template is a mapping factory with renamable parts.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MappingTemplate:
    """A reusable mapping blueprint for one production system."""

    system: str
    # global table -> {local column -> global column} using the production
    # system's default table/column naming.
    tables: Dict[str, Dict[str, str]]
    local_table_names: Dict[str, str]  # global table -> default local name

    def instantiate(
        self,
        mapping: SchemaMapping,
        overrides: Optional[Dict[str, str]] = None,
    ) -> None:
        """Install the template, optionally renaming local tables.

        ``overrides`` maps global table name -> the business's actual local
        table name ("What the business only needs is to modify the mapping
        template to meet its own needs").
        """
        overrides = overrides or {}
        for global_table, column_map in self.tables.items():
            local_table = overrides.get(
                global_table, self.local_table_names[global_table]
            )
            mapping.add_table_mapping(
                TableMapping(
                    local_table=local_table,
                    global_table=global_table,
                    column_map=dict(column_map),
                )
            )


def identity_mapping(
    global_schemas: Dict[str, TableSchema],
    tables: Optional[Sequence[str]] = None,
) -> SchemaMapping:
    """The trivial mapping used by the performance benchmark (§6.1.4).

    "we set the local schema of each normal peer to be identical to the
    global schema. Therefore, the schema mapping is trivial."
    """
    mapping = SchemaMapping(global_schemas)
    for name, schema in global_schemas.items():
        if tables is not None and name.lower() not in {
            table.lower() for table in tables
        }:
            continue
        mapping.add_table_mapping(
            TableMapping(
                local_table=name,
                global_table=name,
                column_map={
                    column.name: column.name for column in schema.columns
                },
            )
        )
    return mapping
