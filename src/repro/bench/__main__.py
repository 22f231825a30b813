"""Regenerate every paper figure from the command line.

Usage::

    python -m repro.bench            # all figures (~1 minute)
    python -m repro.bench fig10 fig11
    python -m repro.bench --list
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.harness import (
    CLUSTER_SIZES,
    latency_of,
    run_adaptive_comparison,
    run_performance_comparison,
)
from repro.bench.reporting import print_series
from repro.bench.workloads import (
    closed_loop_throughput,
    get_supply_chain,
    open_loop_sweep,
)
from repro.tpch import Q1, Q2, Q3, Q4, Q5


def _performance_figure(name, title, sql):
    def run():
        points = run_performance_comparison(name, sql)
        print_series(
            title,
            ["nodes", "BestPeer++ (s)", "HadoopDB (s)"],
            [
                [
                    nodes,
                    latency_of(points, "BestPeer++", nodes),
                    latency_of(points, "HadoopDB", nodes),
                ]
                for nodes in CLUSTER_SIZES
            ],
        )

    return run


def _fig11():
    points = run_adaptive_comparison(Q5())
    print_series(
        "Fig. 11 — adaptive query processing (Q5)",
        ["nodes", "P2P (s)", "MapReduce (s)", "Adaptive (s)"],
        [
            [
                nodes,
                latency_of(points, "P2P engine", nodes),
                latency_of(points, "MapReduce engine", nodes),
                latency_of(points, "Adaptive engine", nodes),
            ]
            for nodes in CLUSTER_SIZES
        ],
    )


def _fig12():
    rows = []
    for num_peers in (10, 20, 50):
        bench = get_supply_chain(num_peers)
        clients = num_peers // 2
        rows.append(
            [
                num_peers,
                closed_loop_throughput(bench.sample_role("supplier"), clients),
                closed_loop_throughput(bench.sample_role("retailer"), clients),
            ]
        )
    print_series(
        "Fig. 12 — throughput scalability (closed loop)",
        ["peers", "supplier q/s", "retailer q/s"],
        rows,
    )


def _latency_sweep(role, title):
    def run():
        bench = get_supply_chain(50)
        sample = bench.sample_role(role)
        offered = [
            sample.capacity_qps * fraction
            for fraction in (0.2, 0.4, 0.6, 0.8, 0.95, 1.1, 1.3)
        ]
        points = open_loop_sweep(sample, offered)
        print_series(
            title,
            ["offered q/s", "achieved q/s", "avg latency (s)"],
            [[p.offered_qps, p.achieved_qps, p.avg_latency_s] for p in points],
        )

    return run


FIGURES = {
    "fig06": _performance_figure("Q1", "Fig. 6 — Q1: selection on LineItem", Q1()),
    "fig07": _performance_figure(
        "Q2", "Fig. 7 — Q2: aggregation on LineItem", Q2(ship_date="1995-06-01")
    ),
    "fig08": _performance_figure("Q3", "Fig. 8 — Q3: LineItem join Orders", Q3()),
    "fig09": _performance_figure(
        "Q4", "Fig. 9 — Q4: PartSupp join Part + aggregation", Q4()
    ),
    "fig10": _performance_figure("Q5", "Fig. 10 — Q5: multi-table join", Q5()),
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _latency_sweep(
        "supplier", "Fig. 13 — supplier latency vs throughput (50 peers)"
    ),
    "fig14": _latency_sweep(
        "retailer", "Fig. 14 — retailer latency vs throughput (50 peers)"
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the BestPeer++ paper's evaluation figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        help=f"figures to run (default: all of {', '.join(FIGURES)})",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available figures and exit"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in FIGURES:
            print(name)
        return 0
    wanted = args.figures or list(FIGURES)
    unknown = [name for name in wanted if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figures: {', '.join(unknown)}")
    # This is the one place wall time is correct: it reports how long the
    # *driver process* took to regenerate figures, not a simulated quantity
    # — every latency the figures print comes from the sim clock.
    started = time.time()
    for name in wanted:
        FIGURES[name]()
    print(f"\ndone in {time.time() - started:.1f}s wall-clock")
    return 0


if __name__ == "__main__":
    sys.exit(main())
