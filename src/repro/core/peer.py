"""The normal peer (§4).

A normal peer is one business's BestPeer++ instance: a cloud virtual server
running the local database plus the five §4 components — schema mapping,
data loader, data indexer, access control and the query executor.  The
executor lives in the engine modules; everything else is here.

Two data flows (Fig. 2):

* **offline**: production system -> data loader (via schema mapping) ->
  local database, with periodic snapshot-differential refreshes,
* **online**: remote peers fetch qualified tuples via
  :meth:`NormalPeer.execute_fetch` (access-control rewritten), and the
  query-submitting peer assembles results locally.

Query semantics (Definition 2): every query carries a submission timestamp;
a peer whose database was refreshed *after* that timestamp rejects the query
so the result reflects one consistent snapshot across peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.access_control import AccessController, Role
from repro.core.config import BestPeerConfig
from repro.core.loader import DataLoader, SnapshotDelta
from repro.core.schema_mapping import SchemaMapping
from repro.errors import (
    BestPeerError,
    PeerUnavailableError,
    QueryRejectedError,
    SqlExecutionError,
)
from repro.sim.cloud import CloudProvider, Instance, InstanceState
from repro.sim.compute import ComputeModel, DEFAULT_COMPUTE_MODEL
from repro.sqlengine.database import Database, PreparedSelect, QueryResult
from repro.sqlengine.schema import TableSchema


@dataclass
class LocalExecution:
    """A statement's result plus its simulated local processing time."""

    result: QueryResult
    seconds: float


@dataclass
class BackupPayload:
    """What an EBS snapshot of a peer's database contains.

    Includes the loader's snapshot store: it lives "in the normal peer
    instance but in a separate database" (§4.2), so it is backed up and
    restored with everything else — otherwise the first differential
    refresh after a fail-over would diff against a stale snapshot.
    """

    schemas: List[TableSchema]
    secondary_indices: Dict[str, List[str]]
    tables: Dict[str, List[tuple]]
    last_refresh_at: float
    loader_snapshots: Dict[str, List[tuple]] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.tables.values())


class NormalPeer:
    """One business's BestPeer++ instance."""

    def __init__(
        self,
        peer_id: str,
        instance: Instance,
        config: Optional[BestPeerConfig] = None,
        compute_model: Optional[ComputeModel] = None,
    ) -> None:
        self.peer_id = peer_id
        self.instance = instance
        self.config = config or BestPeerConfig()
        self.compute_model = compute_model or DEFAULT_COMPUTE_MODEL
        self.database = Database(peer_id)
        self.access = AccessController()
        self.certificate = None  # set on join by the bootstrap peer
        self.last_refresh_at = 0.0
        self._loader: Optional[DataLoader] = None
        self._secondary_indices: Dict[str, List[str]] = {}
        # Busy time accumulated since the last maintenance epoch; the
        # bootstrap daemon turns it into the CloudWatch CPU gauge.
        self._busy_s_since_epoch = 0.0

    # ------------------------------------------------------------------
    # Identity / state
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The peer's network address (its instance id)."""
        return self.instance.instance_id

    @property
    def online(self) -> bool:
        return self.instance.state is InstanceState.RUNNING

    @property
    def compute_units(self) -> float:
        return self.instance.instance_type.compute_units

    # ------------------------------------------------------------------
    # Schema + offline data flow
    # ------------------------------------------------------------------
    def create_table(
        self, schema: TableSchema, secondary_indices: Sequence[str] = ()
    ) -> None:
        self.database.create_table(schema)
        for column in secondary_indices:
            self.database.table(schema.name).create_index(
                f"idx_{schema.name}_{column}", column
            )
        if secondary_indices:
            self._secondary_indices[schema.name] = list(secondary_indices)

    def set_schema_mapping(self, mapping: SchemaMapping) -> None:
        self._loader = DataLoader(self.database, mapping)

    @property
    def loader(self) -> DataLoader:
        if self._loader is None:
            raise BestPeerError(
                f"peer {self.peer_id!r} has no schema mapping configured"
            )
        return self._loader

    def load_initial(
        self,
        local_table: str,
        local_columns: Sequence[str],
        rows: Sequence[Sequence[object]],
        now: float = 0.0,
    ) -> SnapshotDelta:
        delta = self.loader.initial_load(local_table, local_columns, rows)
        self.last_refresh_at = now
        self._update_storage_metric()
        return delta

    def refresh(
        self,
        local_table: str,
        local_columns: Sequence[str],
        rows: Sequence[Sequence[object]],
        now: float,
    ) -> SnapshotDelta:
        delta = self.loader.refresh(local_table, local_columns, rows)
        self.last_refresh_at = now
        self._update_storage_metric()
        return delta

    # ------------------------------------------------------------------
    # Online data flow
    # ------------------------------------------------------------------
    def execute_local(
        self,
        sql: str,
        query_timestamp: Optional[float] = None,
        prepared: Optional[PreparedSelect] = None,
    ) -> LocalExecution:
        """Run a statement on the local database (no access rewriting).

        Enforces the Definition-2 snapshot check when ``query_timestamp`` is
        given.  When ``prepared`` is given (a plan built once by the
        query-submitting peer), the local parse+plan passes are skipped —
        all peers share the global schema by construction (§4.1).
        """
        self._require_online()
        self._check_snapshot(query_timestamp)
        if prepared is not None:
            result = self.database.execute_prepared(prepared)
        else:
            result = self.database.execute(sql)
        seconds = self.compute_model.seconds(result.stats, self.compute_units)
        self._busy_s_since_epoch += seconds
        return LocalExecution(result=result, seconds=seconds)

    def execute_fetch(
        self,
        table: str,
        sql: str,
        user: Optional[str] = None,
        query_timestamp: Optional[float] = None,
        prepared: Optional[PreparedSelect] = None,
    ) -> LocalExecution:
        """Serve a remote peer's single-table fetch request.

        When ``user`` is given, the result is rewritten under the user's
        access role *before* leaving the peer ("The data that cannot be
        accessed by u will not be returned", §4.4).
        """
        execution = self.execute_local(sql, query_timestamp, prepared=prepared)
        if user is not None:
            result = execution.result
            masked = self.access.rewrite_rows(
                user, table, result.columns, result.batch
            )
            execution.result = QueryResult(masked, result.stats)
        return execution

    def prepare_fetch(self, sql: str) -> Optional[PreparedSelect]:
        """Plan a broadcast subquery once, for reuse at every data owner.

        Returns ``None`` for statements that cannot be shared (e.g. ones
        containing subqueries), in which case callers fall back to sending
        plain SQL.  A missing table raises :class:`SqlCatalogError` exactly
        like executing the SQL would, preserving broadcast skip semantics.
        """
        try:
            return self.database.prepare(sql)
        except SqlExecutionError:
            return None

    def _check_snapshot(self, query_timestamp: Optional[float]) -> None:
        if query_timestamp is not None and self.last_refresh_at > query_timestamp:
            raise QueryRejectedError(
                f"peer {self.peer_id!r} refreshed at {self.last_refresh_at} "
                f"after the query's timestamp {query_timestamp}; resubmit"
            )

    def _require_online(self) -> None:
        if not self.online:
            raise PeerUnavailableError(f"peer {self.peer_id!r} is offline")

    # ------------------------------------------------------------------
    # Index publication (§4.3: "each normal peer invokes the data indexer
    # to publish index entries to the BestPeer++ network")
    # ------------------------------------------------------------------
    def publish_indices(
        self,
        indexer,
        range_columns: Optional[Dict[str, Sequence[str]]] = None,
    ) -> int:
        """Publish table + column (+ optional range) entries for all tables.

        ``range_columns`` maps table -> columns to build range indexes on.
        Only what the indexer's policy admits and has not published
        already is written.  Returns total routing hops spent.
        """
        tables = map(self.database.table, self.database.table_names())
        return sum(
            indexer.sync_table(self.peer_id, table, range_columns) for table in tables
        )

    # ------------------------------------------------------------------
    # Backup / restore (EBS snapshots, §2.1/§3.2)
    # ------------------------------------------------------------------
    def make_backup_payload(self) -> BackupPayload:
        return BackupPayload(
            schemas=[
                self.database.table(name).schema
                for name in self.database.table_names()
            ],
            secondary_indices=dict(self._secondary_indices),
            tables={
                name: list(self.database.table(name).rows())
                for name in self.database.table_names()
            },
            last_refresh_at=self.last_refresh_at,
            loader_snapshots=(
                self._loader.export_snapshots()
                if self._loader is not None
                else {}
            ),
        )

    def backup_to(self, cloud: CloudProvider):
        """Asynchronously snapshot the database to EBS."""
        payload = self.make_backup_payload()
        return cloud.create_snapshot(
            self.host, self.database.total_bytes, payload
        )

    def restore_from_payload(self, payload: BackupPayload) -> None:
        """Rebuild the database from a snapshot (fail-over recovery)."""
        self.database = Database(self.peer_id)
        for schema in payload.schemas:
            self.create_table(
                schema, payload.secondary_indices.get(schema.name, ())
            )
        for table, rows in payload.tables.items():
            self.database.table(table).insert_many(rows)
        self.last_refresh_at = payload.last_refresh_at
        # Rebind the loader to the rebuilt database and reinstall its
        # backed-up snapshot store, so future differential refreshes diff
        # against what the restored database actually contains.
        if self._loader is not None:
            mapping = self._loader.mapping
            self._loader = DataLoader(self.database, mapping)
            self._loader.restore_snapshots(payload.loader_snapshots)
        self._update_storage_metric()

    def rebind_instance(self, instance: Instance) -> None:
        """Move the peer onto a freshly launched instance (fail-over)."""
        self.instance = instance
        self._update_storage_metric()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def record_busy(self, seconds: float) -> None:
        """Charge extra busy time (e.g. coordinator-side processing)."""
        if seconds > 0:
            self._busy_s_since_epoch += seconds

    def update_cpu_metric(self, epoch_s: float) -> float:
        """Fold accumulated busy time into the CloudWatch CPU gauge.

        Called by the bootstrap daemon once per maintenance epoch; returns
        the utilization and resets the accumulator.
        """
        if epoch_s <= 0:
            raise BestPeerError(f"epoch must be positive: {epoch_s}")
        utilization = min(1.0, self._busy_s_since_epoch / epoch_s)
        if self._busy_s_since_epoch > 0:
            # Only overwrite the gauge when this peer actually worked; an
            # externally set gauge (e.g. load generated outside the query
            # path) stays authoritative for an idle epoch.
            self._busy_s_since_epoch = 0.0
            if self.instance.state is InstanceState.RUNNING:
                self.instance.cpu_utilization = utilization
        return utilization

    def _update_storage_metric(self) -> None:
        if self.instance.state is InstanceState.RUNNING:
            self.instance.storage_used_gb = self.database.total_bytes / 1e9
