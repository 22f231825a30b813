"""Metric tables and the small pure functions the benchmark reports with.

Everything here is independent of ``repro``: percentiles, the result
digest, and the two metric tables (end-to-end with their same-seed
regression bounds, per-layer without).  ``run.py`` prints from these
tables, ``compare.py`` applies the bounds, and ``BENCHMARK.json`` must list
the same names and units (a harness self-test holds it to that).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

#: Relative tolerance for metrics on the simulated clock: they are exact
#: per seed, so "bound 0" means equal up to float printing.
SIM_REL_TOL = 1e-9


@dataclass(frozen=True)
class Metric:
    """One reported number: its name, unit, direction and (if any) bound.

    ``bound`` is the share of the base value by which a same-seed re-run
    may be worse before ``compare.py`` calls it a regression; ``None``
    means the metric is informational (per-layer).
    """

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None
    what: str = ""


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25,
           "child start to first warm-up round: imports, dbgen, add_peer/"
           "load_peer, index publish, histograms (median of the set-ups in a run)"),
    Metric("round_ms_p50", "ms", "lower", 0.20,
           "median wall time of one round over the timed rounds, at reference host speed"),
    Metric("round_ms_p90", "ms", "lower", 0.25,
           "90th percentile of the same samples"),
    Metric("ops_per_s", "1/s", "higher", 0.20,
           "ops completed / wall seconds spent inside the program"),
    Metric("sim_latency_s", "sim_s", "lower", 0.0,
           "sum of latency_s / duration_s over the ops of the fixed rounds"),
    Metric("bytes_shipped", "bytes", "lower", 0.0,
           "sum of bytes_transferred over the ops of the fixed rounds"),
    Metric("failed_frac", "ratio", "lower", 0.0,
           "ops that raised, were shed or failed the result check / ops attempted"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "ru_maxrss of the workload's process after the fixed rounds"),
]

#: ``failed_frac`` is always 0 on a healthy tree, and the driver contract
#: wants metrics that are never 0 (it carries failures in the
#: ``attempted``/``failed`` keys instead), so BENCHMARK.json leaves it out.
DRIVER_END_TO_END = [m for m in END_TO_END if m.name != "failed_frac"]
#: The driver takes its medians over ten *different* seeds, so there the
#: exact-per-seed metrics need room for how far seeds differ (measured:
#: under 0.3 %), where ``compare.py`` at one seed gives them none.
DRIVER_SIM_BOUND = 0.01

PER_LAYER: List[Metric] = [
    Metric("sqlengine.stage_ms", "ms", "lower"),
    Metric("sqlengine.stage_rows", "count", "lower"),
    Metric("sqlengine.final_exec_ms", "ms", "lower"),
    Metric("sqlengine.owner_exec_ms", "ms", "lower"),
    Metric("sqlengine.owner_exec_calls", "count", "lower"),
    Metric("sqlengine.prepare_ms", "ms", "lower"),
    Metric("sqlengine.plan_cache_hit_ratio", "ratio", "higher"),
    Metric("sqlengine.write_ms", "ms", "lower"),
    Metric("sqlengine.column_data_ms", "ms", "lower"),
    Metric("core.access.rewrite_ms", "ms", "lower"),
    Metric("core.access.rewrite_rows", "count", "lower"),
    Metric("core.indexer.locate_ms", "ms", "lower"),
    Metric("core.indexer.locate_calls", "count", "lower"),
    Metric("core.indexer.cache_hit_ratio", "ratio", "higher"),
    Metric("core.indexer.hops", "count", "lower"),
    Metric("core.resilience.call_ms", "ms", "lower"),
    Metric("core.resilience.calls", "count", "lower"),
    Metric("core.resilience.retries", "count", "lower"),
    Metric("core.engine.self_ms", "ms", "lower"),
    Metric("core.network.self_ms", "ms", "lower"),
    Metric("core.adaptive.mr_choice_frac", "ratio", "lower"),
    Metric("core.loader.refresh_ms", "ms", "lower"),
    Metric("core.loader.changed_rows", "count", "lower"),
    Metric("core.peer.publish_ms", "ms", "lower"),
    Metric("core.peer.backup_ms", "ms", "lower"),
    Metric("sim.network.transfer_ms", "ms", "lower"),
    Metric("sim.network.transfer_calls", "count", "lower"),
    Metric("sim.network.bytes", "bytes", "lower"),
    Metric("mapreduce.byte_size_ms", "ms", "lower"),
    Metric("mapreduce.byte_size_calls", "count", "lower"),
    Metric("mapreduce.run_job_ms", "ms", "lower"),
    Metric("mapreduce.jobs", "count", "lower"),
    Metric("hadoopdb.execute_ms", "ms", "lower"),
    Metric("hadoopdb.jobs", "count", "lower"),
    Metric("baton.search_ms", "ms", "lower"),
    Metric("baton.search_calls", "count", "lower"),
    Metric("baton.write_ms", "ms", "lower"),
    Metric("baton.hops_per_search", "count", "lower"),
    Metric("serving.submit_ms", "ms", "lower"),
    Metric("serving.shed", "count", "lower"),
    Metric("tpch.generate_s", "s", "lower"),
    Metric("core.load_peer_s", "s", "lower"),
    Metric("bench.wrapper_ms", "ms", "lower"),
    Metric("bench.traced_round_ms", "ms", "lower"),
    Metric("bench.self_ms_sum_frac", "ratio", "higher"),
    Metric("bench.trace_overhead_frac", "ratio", "lower"),
]


#: What the calibration kernel takes on the box the benchmark was sized
#: on, in its usual speed phase.  Scaling by it keeps the reported wall
#: times in (roughly) real milliseconds of that box.
REFERENCE_KERNEL_S = 3.1e-3
#: Rounds on each side whose kernel timings are pooled into one estimate
#: of the host's speed at a given round.
KERNEL_WINDOW = 4


def at_reference_speed(wall_s: Sequence[float], kernel_s: Sequence[float]) -> List[float]:
    """Per-round wall times rescaled to the reference host speed.

    The sandbox's CPU moves between speed phases tens of seconds long and
    +-25 % apart, which no amount of within-run averaging removes.  Each
    round is followed by a fixed pure-Python kernel; a round's time is
    multiplied by ``REFERENCE_KERNEL_S / (median kernel time around that
    round)``, so a phase that slows program and kernel alike cancels.
    """
    if len(wall_s) != len(kernel_s):
        raise ValueError("one kernel timing per round")
    scaled = []
    for index, wall in enumerate(wall_s):
        window = kernel_s[max(0, index - KERNEL_WINDOW): index + KERNEL_WINDOW + 1]
        scaled.append(wall * REFERENCE_KERNEL_S / percentile(window, 0.5))
    return scaled


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q of them at or below."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1]: {q}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the q-th percentile rank."""
    return count - max(1, math.ceil(q * count)) if count else 0


#: Money sums are short decimals, which sit *exactly* on the rounding ties
#: of a 9-digit grid (1234567.895 -> ...89 or ...90), where one ulp of
#: summation noise flips the digit.  Nudging every value up by far more
#: than that noise, and far less than the grid, moves the ties off them.
_TIE_NUDGE = 1.0 + 2.0 ** -36


def _canonical(value: object) -> str:
    if isinstance(value, float):
        # 9 significant digits; ``+ 0.0`` folds -0.0 into 0.0.
        return "%.9g" % (value * _TIE_NUDGE + 0.0)
    if value is None:
        return "~"
    return str(value)


def digest_rows(rows: Iterable[Sequence[object]]) -> str:
    """Order-independent digest of a row multiset."""
    lines = sorted("\x1f".join(_canonical(v) for v in row) for row in rows)
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()[:16]


def _sort_key(row: Sequence[object]) -> tuple:
    return tuple((value is None, 0 if value is None else value) for value in row)


def rows_match(got: Iterable[Sequence[object]], expected: Iterable[Sequence[object]]) -> bool:
    """Same row multiset, floats equal to 9 significant digits.

    Used where two *different* computations must agree (another engine,
    the bench's own oracle): unlike comparing digests it cannot trip over
    a value that straddles a rounding boundary.
    """
    got_rows = sorted(got, key=_sort_key)
    expected_rows = sorted(expected, key=_sort_key)
    if len(got_rows) != len(expected_rows):
        return False
    for got_row, expected_row in zip(got_rows, expected_rows):
        if len(got_row) != len(expected_row):
            return False
        for a, b in zip(got_row, expected_row):
            if isinstance(a, float) and isinstance(b, (float, int)):
                if not math.isclose(a, b, rel_tol=SIM_REL_TOL, abs_tol=1e-12):
                    return False
            elif a != b:
                return False
    return True


def digest_strings(parts: Iterable[str]) -> str:
    """Digest of an *ordered* list of strings (one round's op digests)."""
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


def worse_by(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive = worse, in the metric's own direction; 0 when both are 0.
    """
    if base == new:
        return 0.0
    if base == 0:
        return math.inf if (new > 0) == (metric.better == "lower") else -math.inf
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change
