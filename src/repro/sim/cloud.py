"""Simulated cloud provider: the EC2/RDS/EBS/CloudWatch stand-in.

The paper's Amazon Cloud Adapter (Section 2.1) exposes exactly four
capabilities to the BestPeer++ core:

1. launch/terminate dedicated database servers (EC2/RDS),
2. back up each server's database to reliable storage (EBS, asynchronous,
   four-minute snapshot window),
3. report per-instance health/performance metrics (CloudWatch), and
4. resize an instance for auto-scaling (e.g., m1.small -> m1.large).

:class:`CloudProvider` implements all four against the simulation substrate.
The instance-type catalogue mirrors the types named in the paper, including
their relative compute power, which the cost model uses to speed up local
processing after an auto-scaling event.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CloudError, InstanceNotFound, InstanceStateError
from repro.sim.clock import SimClock
from repro.sim.network import SimNetwork


@dataclass(frozen=True)
class InstanceType:
    """An EC2 instance type as used in the paper's experiments."""

    name: str
    virtual_cores: int
    memory_gb: float
    # Relative compute power; m1.small (1 ECU) is the unit.
    compute_units: float
    hourly_cost_usd: float


INSTANCE_TYPES: Dict[str, InstanceType] = {
    "m1.small": InstanceType("m1.small", 1, 1.7, 1.0, 0.08),
    "m1.medium": InstanceType("m1.medium", 1, 3.75, 2.0, 0.16),
    "m1.large": InstanceType("m1.large", 4, 7.5, 4.0, 0.32),
    "m1.xlarge": InstanceType("m1.xlarge", 8, 15.0, 8.0, 0.64),
}

# Scale-up path used by the auto-scaling daemon: each type upgrades to the
# next one in this list.
_SCALE_UP_ORDER = ["m1.small", "m1.medium", "m1.large", "m1.xlarge"]

# The paper backs up "the whole MySQL database ... in a four-minute window".
EBS_BACKUP_WINDOW_S = 240.0
# Launching a fresh EC2 instance takes on the order of a minute.
INSTANCE_LAUNCH_TIME_S = 60.0
# Restoring a database from an EBS snapshot; proportional part added per byte.
SNAPSHOT_RESTORE_BASE_S = 30.0
SNAPSHOT_RESTORE_BYTES_PER_S = 200e6


class InstanceState(enum.Enum):
    """Lifecycle of a simulated instance."""

    PENDING = "pending"
    RUNNING = "running"
    CRASHED = "crashed"
    TERMINATED = "terminated"


@dataclass
class EbsSnapshot:
    """An asynchronous backup of one instance's database."""

    snapshot_id: str
    instance_id: str
    taken_at: float
    payload_bytes: int
    # Opaque application payload (the BestPeer++ loader stores a database
    # image here); the simulator never inspects it.
    payload: object = None


@dataclass
class Instance:
    """A launched virtual server."""

    instance_id: str
    instance_type: InstanceType
    storage_gb: float
    state: InstanceState
    launched_at: float
    security_group: str
    # CloudWatch-style gauges, updated by the component running on the
    # instance (a normal peer reports its own utilization).
    cpu_utilization: float = 0.0
    storage_used_gb: float = 0.0
    accumulated_cost_usd: float = 0.0

    @property
    def free_storage_gb(self) -> float:
        return max(0.0, self.storage_gb - self.storage_used_gb)


class CloudWatch:
    """Read-only metric view over a :class:`CloudProvider`.

    The bootstrap peer's daemon polls this — never the instances directly —
    mirroring how the paper's bootstrap "monitors the health of all other
    BestPeer++ instances by querying the Amazon CloudWatch service".
    """

    def __init__(self, provider: "CloudProvider") -> None:
        self._provider = provider

    def is_responsive(self, instance_id: str) -> bool:
        """True if the instance is running and reachable on the network.

        A transient outage window (fault injection) reads as a missed
        heartbeat too — the failure detector's suspicion threshold decides
        whether that warrants a fail-over.
        """
        instance = self._provider.describe_instance(instance_id)
        if instance.state is not InstanceState.RUNNING:
            return False
        network = self._provider.network
        if network.is_partitioned(instance_id):
            return False
        return not network.is_unreachable(instance_id)

    def metrics(self, instance_id: str) -> Dict[str, float]:
        instance = self._provider.describe_instance(instance_id)
        return {
            "cpu_utilization": instance.cpu_utilization,
            "storage_used_gb": instance.storage_used_gb,
            "free_storage_gb": instance.free_storage_gb,
        }


class CloudProvider:
    """The simulated Amazon: launches instances, takes snapshots, bills time.

    All durations are simulated seconds; the provider never sleeps.
    """

    def __init__(self, network: SimNetwork, clock: Optional[SimClock] = None) -> None:
        self.network = network
        self.clock = clock or SimClock()
        self.cloudwatch = CloudWatch(self)
        self._instances: Dict[str, Instance] = {}
        #: Instance id -> its newest snapshot, the one restore point a
        #: fail-over reads; a newer snapshot releases the one it replaces.
        self._snapshots: Dict[str, EbsSnapshot] = {}
        self._instance_counter = itertools.count(1)
        self._snapshot_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # EC2: launch / terminate / resize
    # ------------------------------------------------------------------
    def launch_instance(
        self,
        instance_type: str = "m1.small",
        storage_gb: float = 5.0,
        security_group: str = "default",
        instance_id: Optional[str] = None,
    ) -> Instance:
        """Launch a new virtual server and register it on the network.

        Returns the running :class:`Instance`.  The launch consumes
        :data:`INSTANCE_LAUNCH_TIME_S` of simulated time (callers that model
        latency, like fail-over, read that constant; the global clock is not
        advanced here because launches overlap other work).
        """
        if instance_type not in INSTANCE_TYPES:
            raise CloudError(f"unknown instance type: {instance_type!r}")
        if storage_gb <= 0:
            raise CloudError(f"storage must be positive: {storage_gb}")
        if instance_id is None:
            instance_id = f"i-{next(self._instance_counter):06d}"
        if instance_id in self._instances:
            raise CloudError(f"instance id already in use: {instance_id!r}")

        instance = Instance(
            instance_id=instance_id,
            instance_type=INSTANCE_TYPES[instance_type],
            storage_gb=storage_gb,
            state=InstanceState.RUNNING,
            launched_at=self.clock.now,
            security_group=security_group,
        )
        self._instances[instance_id] = instance
        self.network.add_host(instance_id)
        return instance

    def terminate_instance(self, instance_id: str) -> None:
        instance = self.describe_instance(instance_id)
        if instance.state is InstanceState.TERMINATED:
            raise InstanceStateError(f"instance already terminated: {instance_id!r}")
        instance.state = InstanceState.TERMINATED
        if self.network.has_host(instance_id):
            self.network.remove_host(instance_id)

    def resize_instance(self, instance_id: str, new_type: str) -> Instance:
        """Auto-scaling: move the instance to a different type in place."""
        if new_type not in INSTANCE_TYPES:
            raise CloudError(f"unknown instance type: {new_type!r}")
        instance = self.describe_instance(instance_id)
        self._require_running(instance)
        instance.instance_type = INSTANCE_TYPES[new_type]
        return instance

    def scale_up_type(self, current: str) -> Optional[str]:
        """Next-larger instance type, or ``None`` if already at the top."""
        if current not in _SCALE_UP_ORDER:
            raise CloudError(f"unknown instance type: {current!r}")
        index = _SCALE_UP_ORDER.index(current)
        if index + 1 >= len(_SCALE_UP_ORDER):
            return None
        return _SCALE_UP_ORDER[index + 1]

    def add_storage(self, instance_id: str, extra_gb: float) -> Instance:
        if extra_gb <= 0:
            raise CloudError(f"extra storage must be positive: {extra_gb}")
        instance = self.describe_instance(instance_id)
        self._require_running(instance)
        instance.storage_gb += extra_gb
        return instance

    # ------------------------------------------------------------------
    # Failures (used by FailureInjector)
    # ------------------------------------------------------------------
    def crash_instance(self, instance_id: str) -> None:
        """Simulate an instance crash: it stops responding but is not freed."""
        instance = self.describe_instance(instance_id)
        self._require_running(instance)
        instance.state = InstanceState.CRASHED
        self.network.partition(instance_id)

    # ------------------------------------------------------------------
    # EBS: snapshots and restore
    # ------------------------------------------------------------------
    def create_snapshot(
        self, instance_id: str, payload_bytes: int, payload: object = None
    ) -> EbsSnapshot:
        """Asynchronously back up the instance's database to EBS.

        Backups are asynchronous in the paper ("no service interrupt during
        the back-up process"), so this costs the *instance* nothing; the
        snapshot simply becomes the newest restore point, and the one it
        supersedes is dropped.
        """
        instance = self.describe_instance(instance_id)
        self._require_running(instance)
        if payload_bytes < 0:
            raise CloudError(f"snapshot size cannot be negative: {payload_bytes}")
        snapshot = EbsSnapshot(
            snapshot_id=f"snap-{next(self._snapshot_counter):06d}",
            instance_id=instance_id,
            taken_at=self.clock.now,
            payload_bytes=payload_bytes,
            payload=payload,
        )
        self._snapshots[instance_id] = snapshot
        return snapshot

    def latest_snapshot(self, instance_id: str) -> Optional[EbsSnapshot]:
        return self._snapshots.get(instance_id)

    def restore_duration_s(self, snapshot: EbsSnapshot) -> float:
        """Simulated time to restore a database from ``snapshot``."""
        return (
            SNAPSHOT_RESTORE_BASE_S
            + snapshot.payload_bytes / SNAPSHOT_RESTORE_BYTES_PER_S
        )

    # ------------------------------------------------------------------
    # Introspection & billing
    # ------------------------------------------------------------------
    def describe_instance(self, instance_id: str) -> Instance:
        instance = self._instances.get(instance_id)
        if instance is None:
            raise InstanceNotFound(f"no such instance: {instance_id!r}")
        return instance

    def list_instances(self, state: Optional[InstanceState] = None) -> List[Instance]:
        instances = list(self._instances.values())
        if state is not None:
            instances = [i for i in instances if i.state is state]
        return instances

    def bill(self, instance_id: str, hours: float) -> float:
        """Accrue pay-as-you-go cost for ``hours`` of usage; returns the charge."""
        if hours < 0:
            raise CloudError(f"cannot bill negative hours: {hours}")
        instance = self.describe_instance(instance_id)
        charge = instance.instance_type.hourly_cost_usd * hours
        instance.accumulated_cost_usd += charge
        return charge

    def _require_running(self, instance: Instance) -> None:
        if instance.state is not InstanceState.RUNNING:
            raise InstanceStateError(
                f"instance {instance.instance_id!r} is {instance.state.value}, "
                "expected running"
            )
