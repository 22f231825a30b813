"""Percentiles, the sample-count rule, digests and the compare verdicts."""

import math
import random

import pytest

from bench_e2e import compare
from bench_e2e.stats import (
    END_TO_END,
    Metric,
    digest_rows,
    percentile,
    rows_match,
    samples_beyond,
    worse_by,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    random.Random(0).shuffle(samples)
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.90) == 90
    assert percentile(samples, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_p90_needs_a_hundred_samples_for_ten_beyond_it():
    assert samples_beyond(100, 0.90) == 10
    assert samples_beyond(99, 0.90) == 9
    assert samples_beyond(110, 0.90) == 11
    assert samples_beyond(0, 0.90) == 0
    # the count really is the number of samples above the reported value
    samples = [float(i) for i in range(110)]
    p90 = percentile(samples, 0.90)
    assert sum(s > p90 for s in samples) == samples_beyond(110, 0.90)


def test_digest_ignores_row_order_and_float_noise():
    rows = [(1, "a", 1234567.895), (2, None, -0.0), (3, "c", 0.1 + 0.2)]
    shuffled = [rows[2], rows[0], rows[1]]
    assert digest_rows(rows) == digest_rows(shuffled)
    # summation-order noise on a value that sits on a 9-digit rounding tie
    noisy = [(1, "a", math.nextafter(1234567.895, 0.0)), (2, None, 0.0), (3, "c", 0.3)]
    assert digest_rows(rows) == digest_rows(noisy)
    assert digest_rows(rows) != digest_rows(rows[:2])
    assert digest_rows(rows) != digest_rows([(1, "a", 1234567.91)] + rows[1:])
    # a multiset, not a set
    assert digest_rows([(1,), (1,)]) != digest_rows([(1,)])


def test_rows_match_tolerates_noise_not_differences():
    rows = [(1, "x", 10.0), (2, None, None), (3, "z", 2.5e6)]
    assert rows_match(rows, list(reversed(rows)))
    assert rows_match(rows, [(1, "x", 10.0 * (1 + 1e-12)), (2, None, None), (3, "z", 2.5e6)])
    assert not rows_match(rows, [(1, "x", 10.0001), (2, None, None), (3, "z", 2.5e6)])
    assert not rows_match(rows, rows[:2])
    assert not rows_match(rows, [(1, "x", 10.0), (2, None, 0.0), (3, "z", 2.5e6)])


def test_worse_by_follows_the_metric_direction():
    lower = Metric("t", "ms", "lower", 0.15)
    higher = Metric("r", "1/s", "higher", 0.15)
    assert worse_by(lower, 100.0, 110.0) == pytest.approx(0.10)
    assert worse_by(lower, 100.0, 90.0) == pytest.approx(-0.10)
    assert worse_by(higher, 100.0, 90.0) == pytest.approx(0.10)
    assert worse_by(lower, 0.0, 0.0) == 0.0
    assert worse_by(lower, 0.0, 1.0) == math.inf


def _doc(**metrics_by_run):
    """One workload; each keyword is a metric name -> list of per-run values."""
    runs = len(next(iter(metrics_by_run.values())))
    return {"workloads": {"w": {"runs": [
        {"metrics": {name: values[i] for name, values in metrics_by_run.items()}}
        for i in range(runs)
    ]}}}


def test_compare_verdicts(capsys):
    by_name = {m.name: m for m in END_TO_END}
    p50 = by_name["round_ms_p50"]
    assert p50.bound == 0.20
    assert compare.verdict(p50, [100.0], [119.0]) == "ok"
    assert compare.verdict(p50, [100.0], [121.0]) == "worse"
    assert compare.verdict(p50, [100.0], [50.0]) == "ok"
    # a file whose own runs differ by more than the bound resolves nothing
    assert compare.verdict(p50, [100.0, 125.0], [100.0, 101.0]) == "unresolved"
    ops = by_name["ops_per_s"]
    assert compare.verdict(ops, [100.0], [79.0]) == "worse"
    assert compare.verdict(ops, [100.0], [81.0]) == "ok"
    sim = by_name["sim_latency_s"]
    assert compare.verdict(sim, [573.86], [573.86]) == "ok"
    assert compare.verdict(sim, [573.86], [573.87]) == "worse"
    assert compare.verdict(sim, [573.86], [573.85]) == "ok"  # a model gain is not a regression
    failed = by_name["failed_frac"]
    assert compare.verdict(failed, [0.0], [0.0]) == "ok"
    assert compare.verdict(failed, [0.0], [0.001]) == "worse"
    assert compare.verdict(Metric("layer", "ms", "lower"), [1.0], [9.0]) == "info"

    bad = compare.report(
        _doc(round_ms_p50=[100.0], ops_per_s=[10.0]),
        _doc(round_ms_p50=[125.0], ops_per_s=[10.1]),
    )
    out = capsys.readouterr().out
    assert bad == 1
    assert "1.2500" in out and "worse" in out and "100" in out  # ratio with its base


def test_reference_speed_cancels_a_slow_phase():
    from bench_e2e.stats import KERNEL_WINDOW, REFERENCE_KERNEL_S, at_reference_speed

    # 40 identical rounds; the host runs at half speed for the middle 20:
    # program and kernel both take twice as long there.
    slow = [20 <= i < 40 for i in range(60)]
    wall = [0.2 * (2 if s else 1) for s in slow]
    kernel = [REFERENCE_KERNEL_S * (2 if s else 1) for s in slow]
    scaled = at_reference_speed(wall, kernel)
    away_from_edges = [v for i, v in enumerate(scaled)
                       if min(abs(i - 20), abs(i - 40)) > KERNEL_WINDOW]
    assert all(v == pytest.approx(0.2) for v in away_from_edges)
    # one kernel sample hit by a hiccup does not move its neighbours' scale
    kernel[5] *= 10
    assert at_reference_speed(wall, kernel)[5] == pytest.approx(0.2)
    # a host that is uniformly faster reads as the reference host
    assert at_reference_speed([0.1], [REFERENCE_KERNEL_S / 2]) == [pytest.approx(0.2)]
    with pytest.raises(ValueError):
        at_reference_speed([0.1, 0.2], [REFERENCE_KERNEL_S])
