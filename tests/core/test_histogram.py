"""Tests for MHIST histograms and iDistance mapping."""

import math
import random

import pytest

from repro.core.histogram import (
    Bucket,
    Histogram,
    bucket_idistance_ranges,
    estimate_join_size,
    idistance_key,
    numeric_value,
)
from repro.errors import BestPeerError


def uniform_rows(n=1000, seed=1):
    rng = random.Random(seed)
    return [(rng.uniform(0, 100), rng.uniform(0, 50)) for _ in range(n)]


class TestBucket:
    def test_volume(self):
        bucket = Bucket((0.0, 0.0), (2.0, 3.0), 10)
        assert bucket.volume() == 6.0

    def test_overlap_full(self):
        bucket = Bucket((0.0,), (10.0,), 5)
        assert bucket.overlap_volume([None], [None]) == 10.0

    def test_overlap_partial(self):
        bucket = Bucket((0.0,), (10.0,), 5)
        assert bucket.overlap_volume([5.0], [None]) == 5.0
        assert bucket.overlap_volume([2.0], [4.0]) == 2.0

    def test_overlap_disjoint(self):
        bucket = Bucket((0.0,), (10.0,), 5)
        assert bucket.overlap_volume([20.0], [30.0]) == 0.0

    def test_center(self):
        assert Bucket((0.0, 2.0), (10.0, 4.0), 1).center() == (5.0, 3.0)


class TestBuild:
    def test_bucket_count_respected(self):
        histogram = Histogram.build(["a", "b"], uniform_rows(), num_buckets=16)
        assert len(histogram.buckets) == 16

    def test_counts_total_preserved(self):
        rows = uniform_rows(500)
        histogram = Histogram.build(["a", "b"], rows, num_buckets=8)
        assert histogram.relation_size() == 500

    def test_null_rows_ignored(self):
        rows = [(1.0, 2.0), (None, 3.0), (4.0, None)]
        histogram = Histogram.build(["a", "b"], rows, num_buckets=2)
        assert histogram.relation_size() == 1

    def test_a_date_that_is_no_calendar_day_is_not_histogrammable(self):
        # DATE columns check the YYYY-MM-DD pattern only, so '1998-02-30'
        # can be stored; it has no ordinal and is skipped like free text.
        assert numeric_value("1998-02-30") is None
        assert numeric_value("1998-02-28") == 729448.0
        rows = [("1998-02-27",), ("1998-02-30",), ("1998-02-28",), (None,)]
        histogram = Histogram.build(["d"], rows, num_buckets=2)
        assert histogram.relation_size() == 2
        # As a query bound it leaves that side of the region open.
        assert histogram.region_count(lows={"d": "1998-02-30"}) == 2

    def test_equal_values_of_different_kinds_keep_their_own_conversion(self):
        # 1 == 1.0 == True, yet a bool is not a point on the axis.
        rows = [(1,), (1.0,), (True,), (3,)]
        assert Histogram.build(["a"], rows, num_buckets=1).relation_size() == 3

    def test_empty_input(self):
        histogram = Histogram.build(["a"], [], num_buckets=4)
        assert histogram.relation_size() == 0
        assert histogram.selectivity() == 0.0

    def test_identical_points_stop_splitting(self):
        rows = [(5.0,)] * 100
        histogram = Histogram.build(["a"], rows, num_buckets=8)
        assert len(histogram.buckets) == 1
        assert histogram.relation_size() == 100

    def test_invalid_bucket_count(self):
        with pytest.raises(BestPeerError):
            Histogram.build(["a"], [(1.0,)], num_buckets=0)

    def test_no_columns_rejected(self):
        with pytest.raises(BestPeerError):
            Histogram([], [])

    def test_splits_highest_spread_dimension(self):
        # Dimension "a" spans [0, 100], "b" is constant; splits must cut "a".
        rows = [(float(i), 1.0) for i in range(100)]
        histogram = Histogram.build(["a", "b"], rows, num_buckets=4)
        lows_a = {bucket.lows[0] for bucket in histogram.buckets}
        assert len(lows_a) == 4  # four distinct sub-ranges along "a"


class TestEstimators:
    def test_relation_size(self):
        histogram = Histogram.build(["a", "b"], uniform_rows(800))
        assert histogram.relation_size() == 800

    def test_region_count_uniform_accuracy(self):
        rows = uniform_rows(4000)
        histogram = Histogram.build(["a", "b"], rows, num_buckets=32)
        # Query region: a in [0, 50] — about half the tuples.
        estimate = histogram.region_count(lows={"a": 0.0}, highs={"a": 50.0})
        actual = sum(1 for a, b in rows if a <= 50.0)
        assert estimate == pytest.approx(actual, rel=0.15)

    def test_selectivity_bounds(self):
        histogram = Histogram.build(["a", "b"], uniform_rows())
        assert 0.0 <= histogram.selectivity(lows={"a": 90.0}) <= 1.0
        assert histogram.selectivity() == pytest.approx(1.0)

    def test_join_size_estimation(self):
        left = Histogram.build(["k"], [(float(i % 100),) for i in range(1000)])
        right = Histogram.build(["k"], [(float(i % 100),) for i in range(500)])
        # Join on k over region width 100: expected |L||R|/W = 1000*500/100.
        estimate = estimate_join_size(left, right, query_widths=[100.0])
        assert estimate == pytest.approx(5000.0, rel=0.05)

    def test_join_size_invalid_width(self):
        histogram = Histogram.build(["k"], [(1.0,)])
        with pytest.raises(BestPeerError):
            estimate_join_size(histogram, histogram, query_widths=[0.0])


class TestIDistance:
    def test_key_is_partition_offset_plus_distance(self):
        refs = [(0.0, 0.0), (100.0, 100.0)]
        key = idistance_key((1.0, 0.0), refs, partition_width=1000.0)
        assert key == pytest.approx(1.0)
        key2 = idistance_key((99.0, 100.0), refs, partition_width=1000.0)
        assert key2 == pytest.approx(1000.0 + 1.0)

    def test_partitions_disjoint(self):
        refs = [(0.0,), (10.0,)]
        near_zero = idistance_key((2.0,), refs, partition_width=100.0)
        near_ten = idistance_key((9.0,), refs, partition_width=100.0)
        assert near_zero < 100.0 <= near_ten

    def test_requires_reference_points(self):
        with pytest.raises(BestPeerError):
            idistance_key((1.0,), [])

    def test_bucket_ranges(self):
        histogram = Histogram.build(["a", "b"], uniform_rows(200), num_buckets=4)
        refs = [(0.0, 0.0)]
        ranges = bucket_idistance_ranges(histogram, refs, partition_width=1e6)
        assert len(ranges) == 4
        for key, bucket in ranges:
            assert key == pytest.approx(math.dist(bucket.center(), refs[0]))
