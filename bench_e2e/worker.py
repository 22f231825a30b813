"""One workload in one fresh process: set up, warm up, run rounds, report.

``run.py`` starts this file as a child process, so that ``setup_s`` covers
everything from process start (imports included) and ``peak_rss_mb`` is the
workload's own.  The last line of standard output is one JSON object.

Modes:

* ``setup``   — build the network, report ``setup_s``, exit.
* ``measure`` — untraced: warm-up, then timed rounds (the end-to-end run).
* ``trace``   — an untraced phase for the overhead base, then the same
  rounds under the span wrappers of :mod:`bench_e2e.tracing`.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_e2e.stats import (  # noqa: E402
    REFERENCE_KERNEL_S,
    at_reference_speed,
    digest_strings,
    percentile,
    samples_beyond,
)
from bench_e2e.tracing import LayerTotals, Tracer, aggregate, layer_metrics  # noqa: E402
from bench_e2e.workloads import FIXED_ROUNDS, WARMUP_ROUNDS, WORKLOADS  # noqa: E402

#: Share of ``--seconds`` a traced run spends untraced, to have a base for
#: ``bench.trace_overhead_frac`` from the same process and data.
UNTRACED_SHARE = 0.35
FAILURES_KEPT = 5
SETUP_KERNEL_RUNS = 9


class Tally:
    """Folds rounds into totals; keeps no rows."""

    def __init__(self, fixed_rounds: int) -> None:
        self.fixed_rounds = fixed_rounds
        self.round_wall_s: List[float] = []
        self.kernel_s: List[float] = []  # one calibration timing per round
        self.ops = 0
        self.failed = 0
        self.failures: List[str] = []
        self.shed = 0
        self.hops = 0
        self.hadoopdb_jobs = 0
        self.changed_rows = 0
        self.adaptive_ops = 0
        self.adaptive_mr = 0
        # over the first ``fixed_rounds`` rounds only
        self.sim_latency_s = 0.0
        self.bytes_shipped = 0
        self.round_digests: List[str] = []
        self.peak_rss_mb = 0.0

    @property
    def rounds(self) -> int:
        return len(self.round_wall_s)

    def add(self, result) -> None:
        in_fixed = self.rounds < self.fixed_rounds
        self.round_wall_s.append(result.wall_s)
        self.shed += result.shed
        parts = []
        for outcome in result.outcomes:
            self.ops += 1
            if outcome.error is not None:
                self.failed += 1
                if len(self.failures) < FAILURES_KEPT:
                    self.failures.append(outcome.error)
            self.hops += outcome.hops
            self.changed_rows += outcome.changed_rows
            if outcome.op.kind == "hadoopdb":
                self.hadoopdb_jobs += outcome.jobs
            if outcome.op.engine == "adaptive" and outcome.op.kind == "query":
                self.adaptive_ops += 1
                self.adaptive_mr += outcome.strategy == "mapreduce"
            if in_fixed:
                self.sim_latency_s += outcome.sim_s
                self.bytes_shipped += outcome.nbytes
                parts.append(
                    f"{outcome.op.label}={outcome.digest or outcome.changed_rows}"
                )
        if in_fixed:
            self.round_digests.append(digest_strings(parts))
            if self.rounds == self.fixed_rounds:
                self.peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )


def kernel_seconds() -> float:
    """Time a fixed pure-Python kernel: the host's speed right now.

    Tuples, a dict, string formatting, float arithmetic and a sort — the
    mix the program itself is made of.  See ``stats.at_reference_speed``.
    """
    start = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(12000):
        row = (i, "k%d" % (i & 255), i * 0.5)
        table[row[1]] = row
        total += row[2] * 1.0001
    sorted(table.values())
    return time.perf_counter() - start


def run_rounds(workload, tally: Tally, first_index: int, seconds: float,
               rounds: Optional[int], after_round=None) -> int:
    """Run rounds from ``first_index`` on; returns the next unused index.

    With ``rounds`` set, exactly that many; otherwise until ``seconds`` of
    wall time have passed, and at least the tally's fixed rounds.
    ``after_round()`` runs after each round, outside the timed region.
    """
    index = first_index
    deadline = time.perf_counter() + seconds
    while True:
        done = index - first_index
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= tally.fixed_rounds and time.perf_counter() >= deadline:
            break
        tally.add(workload.run_round(index))
        tally.kernel_s.append(kernel_seconds())
        if after_round is not None:
            after_round()
        index += 1
    return index


def wall_metrics(tally: Tally) -> Dict[str, float]:
    """Wall-clock metrics, at the reference host speed."""
    wall = at_reference_speed(tally.round_wall_s, tally.kernel_s)
    return {
        "round_ms_p50": 1e3 * percentile(wall, 0.50),
        "round_ms_p90": 1e3 * percentile(wall, 0.90),
        "ops_per_s": (tally.ops - tally.failed) / sum(wall),
    }


def host_speed(tally: Tally) -> float:
    """> 1: this host ran faster than the reference during these rounds."""
    return REFERENCE_KERNEL_S / percentile(tally.kernel_s, 0.50)


def counters(workload) -> Dict[str, float]:
    """The program's own public counters the traced run reads deltas of."""
    databases = []
    sim_bytes = 0
    retries = 0
    if workload.network is not None:
        databases += [peer.database for peer in workload.network.peers.values()]
        sim_bytes += workload.network.network.total.bytes
        retries = workload.network.metrics.faults.retries
    if workload.cluster is not None:
        databases += list(workload.cluster.databases.values())
        sim_bytes += workload.cluster.network.total.bytes
    return {
        "plan_cache_hits": sum(db.plan_cache_hits for db in databases),
        "plan_cache_misses": sum(db.plan_cache_misses for db in databases),
        "sim_bytes": sim_bytes,
        "retries": retries,
    }


def traced_metrics(workload, tally: Tally, totals: LayerTotals, missing,
                   before: Dict[str, float], after: Dict[str, float]
                   ) -> Dict[str, Optional[float]]:
    """Per-layer metrics of a traced phase, per round."""
    rounds = tally.rounds
    metrics = layer_metrics(totals, rounds, missing)
    # Self times are raw host seconds; bring them to the reference speed
    # with the phase's overall factor, like the round times.
    raw_wall_s = sum(tally.round_wall_s)
    scale = sum(at_reference_speed(tally.round_wall_s, tally.kernel_s)) / raw_wall_s
    for name, value in metrics.items():
        if name.endswith("_ms") and value is not None:
            metrics[name] = value * scale
    delta = {key: after[key] - before[key] for key in before}
    lookups = delta["plan_cache_hits"] + delta["plan_cache_misses"]
    metrics.update({
        "sqlengine.plan_cache_hit_ratio":
            delta["plan_cache_hits"] / lookups if lookups else 0.0,
        "core.indexer.hops": tally.hops / rounds,
        "core.resilience.retries": delta["retries"] / rounds,
        "core.adaptive.mr_choice_frac":
            tally.adaptive_mr / tally.adaptive_ops if tally.adaptive_ops else 0.0,
        "core.loader.changed_rows": tally.changed_rows / rounds,
        "sim.network.bytes": delta["sim_bytes"] / rounds,
        "hadoopdb.jobs": tally.hadoopdb_jobs / rounds,
        "serving.shed": tally.shed / rounds,
        "tpch.generate_s": workload.generate_s,
        "core.load_peer_s": workload.load_peer_s,
        "bench.traced_round_ms": 1e3 * scale * raw_wall_s / rounds,
        "bench.self_ms_sum_frac": totals.root_s / raw_wall_s,
    })
    return metrics


def run_traced(workload, tally: Tally, first_index: int, seconds: float,
               rounds: Optional[int], spans_out: Optional[str]
               ) -> Dict[str, Optional[float]]:
    """Run rounds under the span wrappers; returns the per-layer metrics.

    Spans stay in memory for one round, then fold into the totals (and go
    to ``spans_out`` as JSON lines when asked).
    """
    tracer = Tracer()
    totals = aggregate([])
    spans_file = open(spans_out, "w", encoding="utf-8") if spans_out else None

    def fold_round() -> None:
        aggregate(tracer.spans, tracer.overhead_s, totals)
        if spans_file is not None:
            for span in tracer.spans:
                spans_file.write(json.dumps(span) + "\n")
        tracer.spans.clear()

    before = counters(workload)
    tracer.install()
    try:
        run_rounds(workload, tally, first_index, seconds, rounds, fold_round)
    finally:
        tracer.uninstall()
        if spans_file is not None:
            spans_file.close()
    return traced_metrics(workload, tally, totals, tracer.missing, before,
                          counters(workload))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many timed rounds instead of --seconds")
    parser.add_argument("--peers", type=int, default=None,
                        help="override the workload's peer count (self-tests)")
    parser.add_argument("--spans-out", default=None,
                        help="trace mode: also write the raw spans here as JSON lines")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, peers=args.peers)
    workload.setup()
    raw_setup_s = time.perf_counter() - _PROCESS_START
    # Set-up has no rounds to interleave the kernel with: time it a few
    # times right after, and scale like a round.
    setup_kernel_s = [kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
    setup_s = at_reference_speed([raw_setup_s], [percentile(setup_kernel_s, 0.5)])[0]
    report: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "peers": workload.peers, "setup_s": setup_s, "raw_setup_s": raw_setup_s,
        "tpch.generate_s": workload.generate_s,
        "core.load_peer_s": workload.load_peer_s,
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    fixed = FIXED_ROUNDS if args.rounds is None else min(FIXED_ROUNDS, args.rounds)
    warmup = Tally(fixed_rounds=0)
    for index in range(WARMUP_ROUNDS):
        warmup.add(workload.run_round(index, cross_check=(index == 0)))
    gc.collect()
    next_index = WARMUP_ROUNDS

    tally = Tally(fixed_rounds=fixed)
    untraced_seconds = args.seconds * (UNTRACED_SHARE if args.mode == "trace" else 1.0)
    next_index = run_rounds(workload, tally, next_index, untraced_seconds, args.rounds)
    failed = warmup.failed + tally.failed
    failures = warmup.failures + tally.failures
    report.update({
        "host_speed": host_speed(tally),
        "raw_round_ms_p50": 1e3 * percentile(tally.round_wall_s, 0.50),
        "samples": {"round_wall_s": [round(v, 6) for v in tally.round_wall_s],
                    "kernel_s": [round(v, 7) for v in tally.kernel_s]},
        "rounds": tally.rounds,
        "samples_beyond_p90": samples_beyond(tally.rounds, 0.90),
        "attempted": tally.ops,
        "round_digests": tally.round_digests,
    })
    metrics: Dict[str, Optional[float]] = dict(wall_metrics(tally))
    metrics.update({
        "sim_latency_s": tally.sim_latency_s,
        "bytes_shipped": float(tally.bytes_shipped),
        "peak_rss_mb": tally.peak_rss_mb,
    })

    if args.mode == "trace":
        traced = Tally(fixed_rounds=fixed)  # as many rounds at least as the untraced phase
        layers = run_traced(workload, traced, next_index,
                            args.seconds * (1.0 - UNTRACED_SHARE), args.rounds,
                            args.spans_out)
        layers["bench.trace_overhead_frac"] = (
            wall_metrics(traced)["round_ms_p50"] / metrics["round_ms_p50"] - 1.0
        )
        failed += traced.failed
        failures += traced.failures
        report.update({
            "traced_rounds": traced.rounds,
            "attempted": tally.ops + traced.ops,
            "traced_metrics": layers,
        })

    report.update({
        "failed": failed,
        "failures": failures[:FAILURES_KEPT],
        "metrics": metrics,
    })
    if args.mode == "measure" and args.rounds is None and samples_beyond(tally.rounds, 0.90) < 10:
        print(
            f"bench_e2e: {args.workload}: only {tally.rounds} timed rounds, fewer "
            f"than 10 samples beyond p90", file=sys.stderr,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
