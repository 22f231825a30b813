"""Figure 11 — adaptive query processing on Q5.

Paper result: "The P2P engine works better in a smaller scale (10 data
nodes). With the increase of data scale ... the MapReduce engine ...
outperforms the P2P engine at the scale of 20 and 50 data nodes. ... the
performance of the adaptive engine approaches whatever the better one."
"""

from repro.bench import print_series
from repro.bench.harness import CLUSTER_SIZES, latency_of, run_adaptive_comparison
from repro.tpch import Q5


def run_experiment():
    return run_adaptive_comparison(Q5())


def test_fig11_adaptive(benchmark):
    points = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        "Fig. 11 — adaptive query processing (Q5)",
        ["nodes", "P2P (s)", "MapReduce (s)", "Adaptive (s)", "adaptive ran"],
        [
            [
                nodes,
                latency_of(points, "P2P engine", nodes),
                latency_of(points, "MapReduce engine", nodes),
                latency_of(points, "Adaptive engine", nodes),
                next(
                    p.strategy
                    for p in points
                    if p.system == "Adaptive engine" and p.nodes == nodes
                ),
            ]
            for nodes in CLUSTER_SIZES
        ],
    )
    # P2P wins at 10 nodes; MapReduce wins at 20 and 50.
    assert latency_of(points, "P2P engine", 10) < latency_of(
        points, "MapReduce engine", 10
    )
    for nodes in (20, 50):
        assert latency_of(points, "MapReduce engine", nodes) < latency_of(
            points, "P2P engine", nodes
        )
    # The adaptive engine tracks the winner within a small planning margin.
    for nodes in CLUSTER_SIZES:
        best = min(
            latency_of(points, "P2P engine", nodes),
            latency_of(points, "MapReduce engine", nodes),
        )
        adaptive = latency_of(points, "Adaptive engine", nodes)
        assert adaptive <= best * 1.10
