"""Unit tests for the Bloom filter (complemented by property tests)."""

import pytest

from repro.core import BloomFilter, build_filter
from repro.errors import BestPeerError


class TestBloomFilter:
    def test_membership_after_add(self):
        bloom = BloomFilter(expected_keys=10)
        bloom.add("hello")
        assert "hello" in bloom
        assert len(bloom) == 1

    def test_update_batch(self):
        bloom = BloomFilter(expected_keys=10)
        bloom.update([1, 2, 3])
        assert all(value in bloom for value in (1, 2, 3))
        assert len(bloom) == 3

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_keys=10)
        assert 42 not in bloom

    def test_size_bytes(self):
        bloom = BloomFilter(expected_keys=100, bits_per_key=10)
        assert bloom.size_bytes == 125  # 1000 bits

    def test_mixed_types_do_not_collide_by_repr(self):
        bloom = BloomFilter(expected_keys=10)
        bloom.add(1)
        # "1" has a different repr than 1, so it is (almost surely) absent.
        assert "1" not in bloom

    def test_equal_keys_of_different_numeric_type_are_members(self):
        # No false negatives: a join sees 1 = 1.0, so the filter must too.
        bloom = build_filter([1, 0, (2, "x")], bits_per_key=64)
        assert all(key in bloom for key in (1.0, True, 0.0, -0.0, (2.0, "x")))
        assert 1.5 not in bloom

    def test_invalid_params(self):
        with pytest.raises(BestPeerError):
            BloomFilter(expected_keys=0)
        with pytest.raises(BestPeerError):
            BloomFilter(expected_keys=1, bits_per_key=0)
        with pytest.raises(BestPeerError):
            BloomFilter(expected_keys=1, num_hashes=0)

    def test_build_filter_sizes_for_input(self):
        bloom = build_filter(range(50), bits_per_key=8)
        assert bloom.num_bits == 400
        assert all(value in bloom for value in range(50))

    def test_build_filter_empty_input(self):
        bloom = build_filter([])
        assert bloom.size_bytes >= 1
        assert 1 not in bloom
