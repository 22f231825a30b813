"""Unit tests for the Bloom filter (complemented by property tests)."""

import pytest

from repro.core import BestPeerConfig, BestPeerNetwork, BloomFilter, build_filter
from repro.errors import BestPeerError
from repro.sqlengine import Column, ColumnType, TableSchema


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


class TestBloomJoinHashesEachKeyOnce:
    """A query hashes each distinct build key once to build the filter and
    each distinct probe key that is not a build key once to probe it: a
    build key passes unhashed, and a key that several owners ship is
    probed once."""

    SQL = "SELECT a.id, b.w FROM a, b WHERE a.id = b.id AND a.v < 5"

    @staticmethod
    def _network(bloom_join_enabled=True):
        schemas = {
            name: TableSchema(
                name,
                [Column("id", ColumnType.INTEGER), Column(other, ColumnType.FLOAT)],
            )
            for name, other in (("a", "v"), ("b", "w"))
        }
        net = BestPeerNetwork(
            schemas, config=BestPeerConfig(bloom_join_enabled=bloom_join_enabled)
        )
        for index in range(3):
            net.add_peer(f"p{index}")
            net.load_peer(
                f"p{index}",
                {
                    "a": [(i, float(i)) for i in range(index, 30, 3)],
                    # Every owner of b ships ids 0-19.
                    "b": [(i, 10.0 * i + index) for i in range(20)],
                },
            )
        return net

    def test_hashes_per_query(self, monkeypatch):
        hashed = []
        original = BloomFilter._positions

        def counting(self, value):
            hashed.append(value)
            return original(self, value)

        monkeypatch.setattr(BloomFilter, "_positions", counting)
        execution = self._network().execute(self.SQL, engine="basic")
        monkeypatch.undo()
        assert execution.bloom_joins == 1
        build = set(range(5))
        probe = set(range(20))
        assert len(hashed) <= len(build) + len(probe - build)  # 5 + 15
        # The parent hashed every distinct key once per owner: 5 + 3 * 20.
        plain = self._network(bloom_join_enabled=False).execute(self.SQL)
        assert sorted(execution.records) == sorted(plain.records)
        assert len(execution.records) == 5 * 3
