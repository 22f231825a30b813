"""BestPeer++ reproduction.

A from-scratch, laptop-scale reproduction of *"BestPeer++: A Peer-to-Peer
Based Large-Scale Data Processing Platform"* (Chen, Hu, Jiang, Lu, Tan, Vo,
Wu — ICDE 2012 / TKDE 26(6) 2014): a cloud-deployed, BATON-organized data
sharing platform for corporate networks, benchmarked against HadoopDB.

Quickstart::

    from repro import BestPeerNetwork
    from repro.tpch import TPCH_SCHEMAS, SECONDARY_INDICES, TpchGenerator, Q2

    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    gen = TpchGenerator(seed=42)
    for i in range(4):
        net.add_peer(f"corp-{i}")
        net.load_peer(f"corp-{i}", gen.generate_peer(i))
    print(net.execute(Q2(), engine="adaptive").scalar())

Package map: :mod:`repro.core` (BestPeer++ itself), :mod:`repro.baton`
(the overlay), :mod:`repro.sqlengine` (the embedded relational engine),
:mod:`repro.mapreduce` (mini Hadoop + HDFS), :mod:`repro.plan` (the one
distributed-plan layer: planner, job driver, root-side merge — what every
engine and the baseline run), :mod:`repro.hadoopdb` (the baseline system's
cluster facade), :mod:`repro.tpch` (workloads), :mod:`repro.sim` (the
simulated cloud substrate), :mod:`repro.bench` (benchmark harness).
"""

from repro.core import (
    AdaptiveEngine,
    BasicEngine,
    BestPeerConfig,
    BestPeerMapReduceEngine,
    BestPeerNetwork,
    BootstrapPeer,
    NormalPeer,
    ParallelP2PEngine,
    QueryExecution,
    Role,
)
from repro.hadoopdb import HadoopDbCluster

__version__ = "1.0.0"

__all__ = [
    "BestPeerNetwork",
    "BestPeerConfig",
    "NormalPeer",
    "BootstrapPeer",
    "QueryExecution",
    "BasicEngine",
    "ParallelP2PEngine",
    "BestPeerMapReduceEngine",
    "AdaptiveEngine",
    "Role",
    "HadoopDbCluster",
    "__version__",
]
