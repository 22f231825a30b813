"""Performance-benchmark harness (Figs. 6-11).

The paper runs 1 GB of TPC-H data per m1.small node; the reproduction runs
a few thousand rows per simulated peer.  To keep the *shape* of the results
(who wins, by what factor, where Q5's crossover falls) the harness scales
all per-row and per-byte costs by :data:`ROW_SCALE` — every simulated row
stands in for ``ROW_SCALE``-fold more work on the paper's testbed — while
absolute constants (the ~12 s MapReduce job startup, the ~1 s pull-based
shuffle delay) stay absolute, exactly as they are in reality.

Networks and clusters are memoized per (system, size) so the per-figure
benchmarks share setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

from repro.core import BestPeerNetwork
from repro.core.costmodel import CostParams
from repro.hadoopdb import HadoopDbCluster
from repro.mapreduce.engine import MapReduceConfig
from repro.sim.compute import ComputeModel
from repro.sim.network import NetworkConfig
from repro.tpch import SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator

# Cost amplification: one simulated row ~ ROW_SCALE rows of the paper's
# 1 GB-per-node dataset (relative to our default generator scale).
ROW_SCALE = 30.0
# Rows per peer relative to the generator's base mix (~2400 lineitems/peer).
DATA_SCALE = 2.0
SEED = 42
CLUSTER_SIZES = (10, 20, 50)


def bench_compute_model() -> ComputeModel:
    """Per-row costs amplified by ROW_SCALE."""
    return ComputeModel(
        scan_s_per_row=1e-5 * ROW_SCALE,
        emit_s_per_row=2e-5 * ROW_SCALE,
        join_s_per_row=5e-6 * ROW_SCALE,
        index_probe_s=5e-6 * ROW_SCALE,
    )


def bench_network_config() -> NetworkConfig:
    """Effective bandwidth shrunk by ROW_SCALE (bytes are scaled rows)."""
    return NetworkConfig(
        bandwidth_bytes_per_s=100e6 / ROW_SCALE,
        loopback_bandwidth_bytes_per_s=2e9 / ROW_SCALE,
    )


def bench_mr_config() -> MapReduceConfig:
    """Hadoop constants: absolute startup/shuffle delays, scaled CPU."""
    return MapReduceConfig(
        job_startup_s=12.0,
        shuffle_notification_delay_s=1.0,
        map_cpu_per_record_s=4e-6 * ROW_SCALE,
        reduce_cpu_per_record_s=4e-6 * ROW_SCALE,
    )


def bench_cost_params() -> CostParams:
    """Adaptive-planner parameters calibrated by the statistics module.

    ``phi / mu`` is pinned to the measured ~12 s job startup; ``mu`` is set
    from measured node throughput at bench scale (the feedback loop of §5.5
    refines these online).
    """
    mu = 9.2e6
    return CostParams(phi=12.0 * mu, mu=mu)


@dataclass
class PerfPoint:
    """One (system, query, cluster size) measurement."""

    system: str
    query: str
    nodes: int
    latency_s: float
    #: The strategy the engine ran (Fig. 11 reports the adaptive choice).
    strategy: str = ""


# ----------------------------------------------------------------------
# System builders (memoized)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def get_bestpeer_network(num_peers: int) -> BestPeerNetwork:
    """The §6.1 BestPeer++ setup: every peer loads all eight tables."""
    network = BestPeerNetwork(
        TPCH_SCHEMAS,
        SECONDARY_INDICES,
        mr_config=bench_mr_config(),
        cost_params=bench_cost_params(),
        compute_model=bench_compute_model(),
        network_config=bench_network_config(),
    )
    generator = TpchGenerator(seed=SEED, scale=DATA_SCALE)
    for index in range(num_peers):
        peer_id = f"corp-{index}"
        network.add_peer(peer_id)
        network.load_peer(peer_id, generator.generate_peer(index))
    role = network.create_full_access_role()
    network.create_user("bench", "corp-0", role)
    # Histograms the adaptive planner uses for selectivity (§5.1/§5.5).
    network.build_histogram("lineitem", ["l_shipdate"])
    network.build_histogram("orders", ["o_orderdate"])
    network.build_histogram("part", ["p_size"])
    return network


@lru_cache(maxsize=None)
def get_hadoopdb_cluster(num_workers: int) -> HadoopDbCluster:
    """The §6.1.3 HadoopDB setup (no co-partitioning)."""
    from repro.sim.network import SimNetwork

    cluster = HadoopDbCluster(
        num_workers,
        network=SimNetwork(bench_network_config()),
        mr_config=bench_mr_config(),
        compute_model=bench_compute_model(),
    )
    cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
    generator = TpchGenerator(seed=SEED, scale=DATA_SCALE)
    for index in range(num_workers):
        cluster.load_worker(index, generator.generate_peer(index))
    return cluster


# ----------------------------------------------------------------------
# Experiment drivers
# ----------------------------------------------------------------------
def run_performance_comparison(
    query_name: str,
    sql: str,
    cluster_sizes: Sequence[int] = CLUSTER_SIZES,
) -> List[PerfPoint]:
    """One Fig. 6-10 experiment: both systems across cluster sizes."""
    points: List[PerfPoint] = []
    for nodes in cluster_sizes:
        network = get_bestpeer_network(nodes)
        execution = network.execute(sql, engine="basic", user="bench")
        points.append(
            PerfPoint(
                system="BestPeer++",
                query=query_name,
                nodes=nodes,
                latency_s=execution.latency_s,
            )
        )
        cluster = get_hadoopdb_cluster(nodes)
        result = cluster.execute(sql)
        points.append(
            PerfPoint(
                system="HadoopDB",
                query=query_name,
                nodes=nodes,
                latency_s=result.duration_s,
            )
        )
    return points


def run_adaptive_comparison(
    sql: str, cluster_sizes: Sequence[int] = CLUSTER_SIZES
) -> List[PerfPoint]:
    """The Fig. 11 experiment: P2P vs MapReduce vs adaptive engines."""
    points: List[PerfPoint] = []
    for nodes in cluster_sizes:
        network = get_bestpeer_network(nodes)
        for engine, label in [
            ("basic", "P2P engine"),
            ("mapreduce", "MapReduce engine"),
            ("adaptive", "Adaptive engine"),
        ]:
            execution = network.execute(sql, engine=engine, user="bench")
            points.append(
                PerfPoint(
                    system=label,
                    query="Q5",
                    nodes=nodes,
                    latency_s=execution.latency_s,
                    strategy=execution.strategy,
                )
            )
    return points


def latency_of(points: Sequence[PerfPoint], system: str, nodes: int) -> float:
    """Pull one measurement out of a result list."""
    for point in points:
        if point.system == system and point.nodes == nodes:
            return point.latency_s
    raise KeyError(f"no point for {system!r} at {nodes} nodes")
