"""Perf-regression microbenchmarks for the local SQL engine.

Each kernel times the *same* query in both execution modes of
:class:`~repro.sqlengine.database.Database` — interpreted ``Expr.evaluate``
tree-walks (the semantic oracle) and the batch kernels of
:mod:`repro.sqlengine.vectorize` running over column-major storage (the
production path) — and asserts the two produce identical rows *and*
identical :class:`~repro.sqlengine.executor.ExecStats` before any timing
counts.  Because simulated latencies are derived purely from those
counters, vectorization cannot change a single figure in the paper
reproduction; it only changes how fast the figures are produced.

The emitted ``BENCH_perf.json`` records a median-of-k wall-clock per mode
plus the one ratio ``vectorized_speedup`` (interpreted over vectorized).
The CI gate compares that *ratio* (measured within one run, on one
machine) against the checked-in baseline, so the check is
machine-independent: a kernel fails only if the production path lost a
significant fraction of its advantage over the oracle.

Usage::

    python -m repro.bench.microbench --out BENCH_perf.json
    python -m repro.bench.microbench --check benchmarks/perf_baseline.json

Wall-clock use below is deliberate and driver-side only: the benchmark
measures the *reproduction's own* execution speed, never simulated time.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.sqlengine.database import EXECUTION_MODES, Database

#: Relative regression tolerance for the CI gate: a kernel fails when its
#: measured speedup drops below ``baseline * (1 - TOLERANCE)``.
TOLERANCE = 0.25

DEFAULT_REPEAT = 5
DEFAULT_SCALE = 1.0
SEED = 1729

_SHIP_DATES = ("1995-01-10", "1995-03-15", "1995-06-01", "1995-09-20")
_ORDER_DATES = ("1995-02-01", "1995-03-01", "1995-04-01", "1995-08-01")


@dataclass
class KernelResult:
    """One kernel's measurement: both modes, their ratio, the work done."""

    name: str
    sql: str
    rows_out: int
    interpreted_s: float
    vectorized_s: float
    #: interpreted time over vectorized time.
    vectorized_speedup: float
    stats: Dict[str, int]


def build_database(scale: float = DEFAULT_SCALE, seed: int = SEED) -> Database:
    """A deterministic two-table dataset shaped like LineItem ⋈ Orders."""
    rng = random.Random(seed)
    db = Database("microbench")
    db.execute(
        "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, "
        "o_custkey INTEGER, o_clerk INTEGER, o_orderdate TEXT, "
        "o_shippriority INTEGER)"
    )
    db.execute(
        "CREATE TABLE lineitem (l_orderkey INTEGER, l_suppkey INTEGER, "
        "l_quantity INTEGER, l_extendedprice FLOAT, l_discount FLOAT, "
        "l_shipdate TEXT)"
    )
    num_orders = _num_orders(scale)
    orders = [
        (
            orderkey,
            rng.randrange(1, 200),
            rng.randrange(0, 200),
            rng.choice(_ORDER_DATES),
            rng.randrange(0, 10),
        )
        for orderkey in range(num_orders)
    ]
    lineitems = [
        (
            rng.randrange(num_orders),
            rng.randrange(0, 200),
            rng.randrange(1, 50),
            round(rng.uniform(900.0, 105000.0), 2),
            round(rng.uniform(0.0, 0.1), 2),
            rng.choice(_SHIP_DATES),
        )
        for _ in range(max(1, int(4000 * scale)))
    ]
    db.table("orders").insert_many(orders)
    db.table("lineitem").insert_many(lineitems)
    # Only ``index_agg`` filters on this column, so only its plan uses it.
    db.execute("CREATE INDEX idx_l_orderkey ON lineitem (l_orderkey)")
    return db


def _num_orders(scale: float) -> int:
    return max(1, int(1000 * scale))


# ----------------------------------------------------------------------
# Kernels: (name, sql).  Single-table predicates compile into the scans;
# the join kernel carries multi-table residual conjuncts so the per-pair
# condition (not just the key probe) is exercised; ``index_agg`` is the
# one kernel whose scan is an index access.
# ----------------------------------------------------------------------
KERNELS: Tuple[Tuple[str, str], ...] = (
    (
        "scan",
        "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem",
    ),
    (
        "filter",
        "SELECT l_orderkey, l_extendedprice FROM lineitem "
        "WHERE l_quantity > 25 AND l_discount < 0.05 "
        "AND l_shipdate > '1995-02-01' AND l_extendedprice * 0.9 > 1000.0",
    ),
    (
        "join",
        "SELECT o_orderkey, l_quantity FROM orders, lineitem "
        "WHERE o_clerk = l_suppkey "
        "AND (l_extendedprice * (1 - l_discount) + o_shippriority * 10.0) "
        "* (1 + o_orderkey * 0.0001) "
        "> l_quantity * o_shippriority * 0.5 - 500.0 "
        "AND l_quantity + o_shippriority < 40",
    ),
    (
        "group_by",
        "SELECT l_shipdate, COUNT(*), SUM(l_extendedprice), AVG(l_discount) "
        "FROM lineitem GROUP BY l_shipdate ORDER BY l_shipdate",
    ),
    (
        "q3_end_to_end",
        "SELECT l_orderkey, o_orderdate, "
        "SUM(l_extendedprice * (1 - l_discount)) AS revenue "
        "FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND l_shipdate > '1995-03-01' "
        "AND o_orderdate < '1995-08-01' "
        "GROUP BY l_orderkey, o_orderdate "
        "ORDER BY revenue DESC LIMIT 10",
    ),
    (
        # Q2's owner-side shape: an index range scan feeding one SUM.  The
        # bound is the median order key, filled in for the scale being run.
        "index_agg",
        "SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem "
        "WHERE l_orderkey > {median_orderkey}",
    ),
)


def kernel_sql(sql: str, scale: float) -> str:
    """``sql`` with its scale-dependent literals filled in."""
    return sql.format(median_orderkey=_num_orders(scale) // 2)


def _time_once(db: Database, sql: str, mode: str) -> float:
    # Assigning the mode, even the one already set, makes the database
    # forget remembered results: every timed run executes its kernels.
    db.execution_mode = mode
    started = time.perf_counter()
    # Rows are derived from the result's batch on first use: consume them
    # inside the timed region so every mode pays for the tuples it hands out.
    db.execute(sql).rows
    return time.perf_counter() - started


def _time_modes(db: Database, sql: str, repeat: int) -> Dict[str, float]:
    """Median wall-clock of ``repeat`` runs per mode, sampled interleaved.

    Alternating the modes within each round keeps slow host drift (thermal
    throttling, background load) out of the speedup ratio.  Untimed warm-up
    runs populate the plan cache (and the plan's lowered kernels) first, so
    every timed run measures execution — the exact per-row and per-batch
    work — with parse+plan amortized identically in both modes.
    """
    for mode in EXECUTION_MODES:
        _time_once(db, sql, mode)
    samples: Dict[str, List[float]] = {mode: [] for mode in EXECUTION_MODES}
    for _ in range(repeat):
        for mode in EXECUTION_MODES:
            samples[mode].append(_time_once(db, sql, mode))
    return {mode: statistics.median(samples[mode]) for mode in EXECUTION_MODES}


def _assert_equivalent(db: Database, sql: str) -> Tuple[int, Dict[str, int]]:
    """Both modes must yield identical rows and identical ExecStats."""
    db.clear_plan_cache()
    db.execution_mode = "interpreted"
    reference = db.execute(sql)
    db.clear_plan_cache()
    db.execution_mode = "vectorized"
    result = db.execute(sql)
    if reference.rows != result.rows:
        raise AssertionError(f"row mismatch (vectorized mode) for: {sql}")
    if asdict(reference.stats) != asdict(result.stats):
        raise AssertionError(f"ExecStats mismatch (vectorized mode) for: {sql}")
    return len(reference.rows), asdict(reference.stats)


def run_kernel(db: Database, name: str, sql: str, repeat: int) -> KernelResult:
    """Verify mode equivalence for one kernel, then time both modes."""
    rows_out, stats = _assert_equivalent(db, sql)
    medians = _time_modes(db, sql, repeat)
    interpreted_s = medians["interpreted"]
    vectorized_s = medians["vectorized"]
    return KernelResult(
        name=name,
        sql=sql,
        rows_out=rows_out,
        interpreted_s=interpreted_s,
        vectorized_s=vectorized_s,
        vectorized_speedup=(
            interpreted_s / vectorized_s if vectorized_s > 0 else float("inf")
        ),
        stats=stats,
    )


def run_plan_cache_workload(db: Database, rounds: int = 20) -> Dict[str, int]:
    """A repeated-query workload: every round after the first should hit.

    Runs in vectorized mode (the default), so the check also proves the
    production path reuses cached plans.
    """
    db.clear_plan_cache()
    db.plan_cache_hits = 0
    db.plan_cache_misses = 0
    db.execution_mode = "vectorized"
    sql = KERNELS[1][1]
    for _ in range(rounds):
        db.execute(sql)
    return {"hits": db.plan_cache_hits, "misses": db.plan_cache_misses}


def run_microbench(
    scale: float = DEFAULT_SCALE,
    repeat: int = DEFAULT_REPEAT,
    seed: int = SEED,
) -> Dict[str, object]:
    """Run every kernel; returns the ``BENCH_perf.json`` payload."""
    db = build_database(scale=scale, seed=seed)
    kernels: Dict[str, Dict[str, object]] = {}
    for name, sql in KERNELS:
        result = run_kernel(db, name, kernel_sql(sql, scale), repeat)
        kernels[name] = asdict(result)
    return {
        "scale": scale,
        "repeat": repeat,
        "seed": seed,
        "tolerance": TOLERANCE,
        "kernels": kernels,
        "plan_cache": run_plan_cache_workload(db),
    }


def check_against_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = TOLERANCE,
) -> List[str]:
    """Failures (empty = pass) comparing ``vectorized_speedup`` per kernel.

    The ratio is measured within one run on one machine, so absolute host
    speed cancels out; only a genuine loss of the vectorized path's
    advantage over the interpreted oracle fails.
    """
    failures: List[str] = []
    current_kernels = current["kernels"]
    for name, entry in baseline["kernels"].items():
        measured = current_kernels.get(name)
        if measured is None:
            failures.append(f"{name}: kernel missing from current run")
            continue
        baselined = entry["vectorized_speedup"]
        floor = baselined * (1.0 - tolerance)
        if measured["vectorized_speedup"] < floor:
            failures.append(
                f"{name}: vectorized_speedup "
                f"{measured['vectorized_speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {baselined:.2f}x "
                f"- {tolerance:.0%} tolerance)"
            )
    hits = current.get("plan_cache", {}).get("hits", 0)
    if not hits:
        failures.append("plan_cache: repeated-query workload recorded no hits")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (1 on regression)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.microbench",
        description=(
            "SQL-engine microbenchmarks: the interpreted oracle vs the "
            "vectorized production path."
        ),
    )
    parser.add_argument("--out", help="write BENCH_perf.json here")
    parser.add_argument(
        "--check", help="compare speedups against this baseline JSON"
    )
    parser.add_argument("--repeat", type=int, default=DEFAULT_REPEAT)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    args = parser.parse_args(argv)

    payload = run_microbench(scale=args.scale, repeat=args.repeat)
    for name, entry in payload["kernels"].items():
        print(
            f"{name:>14}: interpreted {entry['interpreted_s'] * 1e3:8.2f} ms  "
            f"vectorized {entry['vectorized_s'] * 1e3:8.2f} ms  "
            f"({entry['vectorized_speedup']:.2f}x, {entry['rows_out']} rows)"
        )
    cache = payload["plan_cache"]
    print(f"    plan cache: hits={cache['hits']} misses={cache['misses']}")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_against_baseline(payload, baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"baseline check passed ({args.check})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
