"""Write-ahead metadata log for the bootstrap peer (§3 made survivable).

The paper's bootstrap peer is the network's administrator: membership,
certificates, the global schema, roles, the user registry and the
fail-over daemon's bookkeeping all live on it.  PRs 1-3 made *normal*
peers survive faults; this module is the first half of doing the same for
the bootstrap itself.  Every metadata mutation becomes a typed record
appended to a :class:`MetadataLog` and applied through the single
deterministic :func:`apply` reducer, so

* a standby bootstrap that receives the same entries reconstructs the
  exact same :class:`BootstrapState` (promotion = replay),
* every entry carries the epoch of the leader that wrote it — the log
  refuses appends from a stale epoch, the second fence behind the lease
  protocol of :mod:`repro.core.leadership`, and
* certificate serials are strided by epoch, so two leaders that were ever
  alive under different epochs can never issue the same serial.

The reducer is the *only* place bootstrap metadata may be mutated;
analysis rule ATOM001 enforces that project-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.access_control import Role
from repro.core.certificates import Certificate
from repro.errors import (
    BestPeerError,
    CertificateError,
    MembershipError,
    StaleLeaderError,
)

#: Serial-number stride per epoch: serials issued under epoch ``e`` lie in
#: ``(e * SERIAL_STRIDE, (e + 1) * SERIAL_STRIDE]``, so serials from
#: different epochs are disjoint by construction (split-brain safe).
SERIAL_STRIDE = 1_000_000


@dataclass
class PeerRecord:
    """Bookkeeping for one admitted peer."""

    peer_id: str
    certificate: Certificate
    instance_id: str


# ----------------------------------------------------------------------
# Typed log records (one per kind of metadata mutation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemaRegistered:
    """A global-schema table definition entered the shared catalog."""

    name: str
    schema: object

    def describe(self) -> str:
        return f"schema:{self.name}"


@dataclass(frozen=True)
class RoleDefined:
    role: Role

    def describe(self) -> str:
        return f"role:{self.role.name}"


@dataclass(frozen=True)
class UserRegistered:
    user: str
    origin_peer_id: str

    def describe(self) -> str:
        return f"user:{self.user}@{self.origin_peer_id}"


@dataclass(frozen=True)
class PeerAdmitted:
    peer_id: str
    certificate: Certificate
    instance_id: str

    def describe(self) -> str:
        return (
            f"admit:{self.peer_id}:serial={self.certificate.serial}"
            f":instance={self.instance_id}"
        )


@dataclass(frozen=True)
class PeerDeparted:
    peer_id: str

    def describe(self) -> str:
        return f"depart:{self.peer_id}"


@dataclass(frozen=True)
class FailoverStarted:
    """Algorithm 1 declared a peer failed; its replacement is in flight."""

    peer_id: str
    old_instance_id: str

    def describe(self) -> str:
        return f"failover-start:{self.peer_id}:{self.old_instance_id}"


@dataclass(frozen=True)
class FailoverCompleted:
    peer_id: str
    old_instance_id: str
    new_instance_id: str

    def describe(self) -> str:
        return (
            f"failover-done:{self.peer_id}"
            f":{self.old_instance_id}->{self.new_instance_id}"
        )


@dataclass(frozen=True)
class BlacklistReleased:
    """Epoch-end release of blacklisted instances (resources reclaimed)."""

    instance_ids: Tuple[str, ...]

    def describe(self) -> str:
        return f"release:{','.join(self.instance_ids)}"


MetaRecord = Union[
    SchemaRegistered,
    RoleDefined,
    UserRegistered,
    PeerAdmitted,
    PeerDeparted,
    FailoverStarted,
    FailoverCompleted,
    BlacklistReleased,
]


@dataclass(frozen=True)
class LogEntry:
    """One committed record: 1-based index, writer's epoch, the record."""

    index: int
    epoch: int
    record: MetaRecord

    def nbytes(self, base_bytes: int) -> int:
        """Priced size when shipped to the standby (stable, repr-free)."""
        return base_bytes + len(self.record.describe())


class MetadataLog:
    """An append-only, epoch-fenced sequence of :class:`LogEntry`.

    Appends must carry an epoch no older than the newest entry — a stale
    leader whose epoch was superseded cannot extend the log even if it
    somehow bypassed the lease check.
    """

    def __init__(self) -> None:
        self.entries: List[LogEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def last_epoch(self) -> int:
        return self.entries[-1].epoch if self.entries else 0

    def append(self, record: MetaRecord, epoch: int) -> LogEntry:
        if epoch < self.last_epoch:
            raise StaleLeaderError(
                f"append at epoch {epoch} refused: log is at epoch "
                f"{self.last_epoch}"
            )
        entry = LogEntry(index=len(self.entries) + 1, epoch=epoch,
                         record=record)
        self.entries.append(entry)
        return entry

    def receive(self, entry: LogEntry) -> LogEntry:
        """Adopt an entry shipped by the leader (standby tailing the log)."""
        if entry.epoch < self.last_epoch:
            raise StaleLeaderError(
                f"replicated entry at epoch {entry.epoch} refused: log is "
                f"at epoch {self.last_epoch}"
            )
        if entry.index != len(self.entries) + 1:
            raise BestPeerError(
                f"log gap: expected entry {len(self.entries) + 1}, "
                f"got {entry.index}"
            )
        self.entries.append(entry)
        return entry

    def entries_since(self, length: int) -> List[LogEntry]:
        """Entries a follower whose log has ``length`` entries is missing."""
        return list(self.entries[length:])

    def fingerprint(self) -> Tuple:
        """Hashable digest for bit-for-bit determinism comparisons."""
        return tuple(
            (entry.index, entry.epoch, entry.record.describe())
            for entry in self.entries
        )


# ----------------------------------------------------------------------
# The state every entry folds into, and the single reducer
# ----------------------------------------------------------------------
@dataclass
class BootstrapState:
    """Everything the bootstrap is authoritative for, WAL-materialized."""

    schemas: Dict[str, object] = field(default_factory=dict)
    roles: Dict[str, Role] = field(default_factory=dict)
    user_registry: Dict[str, str] = field(default_factory=dict)
    peers: Dict[str, PeerRecord] = field(default_factory=dict)
    blacklist: List[PeerRecord] = field(default_factory=list)
    # serial -> peer it was issued to (duplicate-serial detection).
    serials: Dict[int, str] = field(default_factory=dict)
    # peer -> epoch under which it was admitted (split-brain detection).
    admission_epochs: Dict[str, int] = field(default_factory=dict)
    # peer -> old instance of a fail-over that has started but not
    # completed; a promoted standby finishes these first.
    pending_failovers: Dict[str, str] = field(default_factory=dict)


def apply(state: BootstrapState, entry: LogEntry) -> None:
    """Fold one log entry into the state.  The ONLY metadata mutator.

    Deterministic and side-effect-free beyond ``state`` itself, so a
    standby replaying the same entries reaches the identical state.
    Raises on records that violate admission/serial invariants — a fenced
    split-brain write is rejected here even if it reached the log.
    """
    record = entry.record
    if isinstance(record, SchemaRegistered):
        _apply_schema(state, record)
    elif isinstance(record, RoleDefined):
        state.roles[record.role.name] = record.role
    elif isinstance(record, UserRegistered):
        state.user_registry[record.user] = record.origin_peer_id
    elif isinstance(record, PeerAdmitted):
        _apply_admitted(state, entry, record)
    elif isinstance(record, PeerDeparted):
        _apply_departed(state, record)
    elif isinstance(record, FailoverStarted):
        _apply_failover_started(state, record)
    elif isinstance(record, FailoverCompleted):
        _apply_failover_completed(state, record)
    elif isinstance(record, BlacklistReleased):
        _apply_blacklist_released(state, record)
    else:  # pragma: no cover - the MetaRecord union is closed
        raise BestPeerError(f"unknown metadata record: {record!r}")


def _apply_schema(state: BootstrapState, record: SchemaRegistered) -> None:
    if record.name in state.schemas:
        raise BestPeerError(
            f"global table already registered: {record.name!r}"
        )
    state.schemas[record.name] = record.schema


def _apply_admitted(
    state: BootstrapState, entry: LogEntry, record: PeerAdmitted
) -> None:
    if record.peer_id in state.peers:
        raise MembershipError(f"peer already joined: {record.peer_id!r}")
    if record.peer_id in state.admission_epochs:
        raise MembershipError(
            f"peer {record.peer_id!r} was already admitted under epoch "
            f"{state.admission_epochs[record.peer_id]}"
        )
    if any(held.peer_id == record.peer_id for held in state.blacklist):
        raise MembershipError(f"peer is blacklisted: {record.peer_id!r}")
    serial = record.certificate.serial
    if serial in state.serials:
        raise CertificateError(
            f"duplicate certificate serial {serial}: already issued to "
            f"{state.serials[serial]!r}"
        )
    state.peers[record.peer_id] = PeerRecord(
        peer_id=record.peer_id,
        certificate=record.certificate,
        instance_id=record.instance_id,
    )
    state.serials[serial] = record.peer_id
    state.admission_epochs[record.peer_id] = entry.epoch


def _apply_departed(state: BootstrapState, record: PeerDeparted) -> None:
    member = state.peers.pop(record.peer_id, None)
    if member is None:
        raise MembershipError(f"unknown peer: {record.peer_id!r}")
    state.pending_failovers.pop(record.peer_id, None)
    state.blacklist.append(member)


def _apply_failover_started(
    state: BootstrapState, record: FailoverStarted
) -> None:
    if record.peer_id not in state.peers:
        raise MembershipError(
            f"cannot fail over unknown peer: {record.peer_id!r}"
        )
    state.pending_failovers[record.peer_id] = record.old_instance_id


def _apply_failover_completed(
    state: BootstrapState, record: FailoverCompleted
) -> None:
    member = state.peers.get(record.peer_id)
    if member is None:
        raise MembershipError(
            f"cannot complete fail-over of unknown peer: {record.peer_id!r}"
        )
    state.pending_failovers.pop(record.peer_id, None)
    state.blacklist.append(
        PeerRecord(
            record.peer_id, member.certificate, record.old_instance_id
        )
    )
    member.instance_id = record.new_instance_id


def _apply_blacklist_released(
    state: BootstrapState, record: BlacklistReleased
) -> None:
    released = set(record.instance_ids)
    state.blacklist = [
        held for held in state.blacklist
        if held.instance_id not in released
    ]


def replay(entries: Iterable[LogEntry]) -> BootstrapState:
    """Materialize a fresh state from scratch (standby promotion path)."""
    state = BootstrapState()
    for entry in entries:
        apply(state, entry)
    return state


def next_serial(state: BootstrapState, epoch: int) -> int:
    """The next epoch-strided certificate serial.

    Derived deterministically from the materialized state, so a promoted
    standby continues the sequence exactly where its log left off.
    """
    floor = epoch * SERIAL_STRIDE
    ceiling = floor + SERIAL_STRIDE
    in_epoch = [
        serial for serial in state.serials if floor < serial <= ceiling
    ]
    serial = (max(in_epoch) if in_epoch else floor) + 1
    if serial > ceiling:
        raise CertificateError(
            f"epoch {epoch} exhausted its serial range at {ceiling}"
        )
    return serial
