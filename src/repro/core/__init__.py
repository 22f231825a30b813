"""BestPeer++ core: the paper's primary contribution.

The package mirrors the system's decomposition (Fig. 1/Fig. 2):

* :mod:`~repro.core.bootstrap` — the provider-run bootstrap peer (§3),
* :mod:`~repro.core.peer` — the normal peer with its five components (§4):
  schema mapping, data loader, data indexer, access control, query executor,
* the executors — :mod:`~repro.core.engine_basic` (fetch-and-process, §5.2),
  :mod:`~repro.core.engine_parallel` (replicated joins, §5.3),
  :mod:`~repro.core.engine_mapreduce` (§5.4) and :mod:`~repro.core.adaptive`
  (Algorithm 2, §5.5) with the cost models of Eqs. 1-11,
* :mod:`~repro.core.network` — the one-object deployment facade.
"""

from repro.core.access_control import (
    READ,
    WRITE,
    AccessController,
    AccessRule,
    Role,
    full_access_role,
    rule,
)
from repro.core.adaptive import AdaptiveEngine, TableStatistics
from repro.core.bloom import BloomFilter, build_filter
from repro.core.bootstrap import (
    BootstrapCluster,
    BootstrapPeer,
    MaintenanceReport,
)
from repro.core.certificates import Certificate, CertificateAuthority
from repro.core.config import (
    BestPeerConfig,
    DaemonConfig,
    LANE_BULK,
    LANE_INTERACTIVE,
    LeaseConfig,
    PricingConfig,
    SERVING_LANES,
    ServingConfig,
)
from repro.core.leadership import Lease, LeadershipHandle, LeaseService
from repro.core.metalog import BootstrapState, LogEntry, MetadataLog
from repro.core.costmodel import (
    CostEstimate,
    CostParams,
    FeedbackCalibrator,
    LevelSpec,
)
from repro.core.engine_basic import BasicEngine
from repro.core.engine_mapreduce import BestPeerMapReduceEngine
from repro.core.engine_parallel import ParallelP2PEngine
from repro.core.execution import EngineContext, QueryExecution
from repro.core.fingerprint import fingerprint_bytes, fingerprint_tuple
from repro.core.histogram import Histogram
from repro.core.indexer import (
    DataIndexer,
    FULL_INDEX_POLICY,
    PartialIndexPolicy,
    PeerLookup,
)
from repro.core.instance_mapping import InstanceMatcher, InstanceMatchResult
from repro.core.metrics import (
    BoundedSamples,
    EngineMetrics,
    FaultCounters,
    LaneServingStats,
    MetricsRegistry,
)
from repro.core.loader import DataLoader, SnapshotDelta, snapshot_diff
from repro.core.online_aggregation import (
    OnlineEstimate,
    OnlineSumAggregator,
    online_aggregate,
)
from repro.core.network import BestPeerNetwork
from repro.core.peer import NormalPeer
from repro.core.processing_graph import ProcessingGraph
from repro.core.resilience import (
    CircuitBreaker,
    Deadline,
    ResilienceContext,
    ResilienceSession,
    RetryPolicy,
)
from repro.core.schema_mapping import (
    MappingTemplate,
    SchemaMapping,
    TableMapping,
    identity_mapping,
)

__all__ = [
    "BestPeerNetwork",
    "BestPeerConfig",
    "DaemonConfig",
    "PricingConfig",
    "BootstrapPeer",
    "BootstrapCluster",
    "MaintenanceReport",
    "LeaseConfig",
    "Lease",
    "LeaseService",
    "LeadershipHandle",
    "MetadataLog",
    "LogEntry",
    "BootstrapState",
    "NormalPeer",
    "QueryExecution",
    "EngineContext",
    "BasicEngine",
    "ParallelP2PEngine",
    "BestPeerMapReduceEngine",
    "AdaptiveEngine",
    "TableStatistics",
    "CostParams",
    "CostEstimate",
    "LevelSpec",
    "FeedbackCalibrator",
    "ProcessingGraph",
    "Histogram",
    "InstanceMatcher",
    "InstanceMatchResult",
    "DataIndexer",
    "PeerLookup",
    "PartialIndexPolicy",
    "FULL_INDEX_POLICY",
    "MetricsRegistry",
    "EngineMetrics",
    "FaultCounters",
    "BoundedSamples",
    "LaneServingStats",
    "ServingConfig",
    "SERVING_LANES",
    "LANE_INTERACTIVE",
    "LANE_BULK",
    "RetryPolicy",
    "CircuitBreaker",
    "Deadline",
    "ResilienceContext",
    "ResilienceSession",
    "DataLoader",
    "SnapshotDelta",
    "snapshot_diff",
    "OnlineEstimate",
    "OnlineSumAggregator",
    "online_aggregate",
    "SchemaMapping",
    "TableMapping",
    "MappingTemplate",
    "identity_mapping",
    "Role",
    "AccessRule",
    "AccessController",
    "rule",
    "full_access_role",
    "READ",
    "WRITE",
    "Certificate",
    "CertificateAuthority",
    "BloomFilter",
    "build_filter",
    "fingerprint_bytes",
    "fingerprint_tuple",
]
