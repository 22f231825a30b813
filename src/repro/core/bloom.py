"""Bloom filters for the bloom-join optimization (§5.2).

"for equi-join queries, the system employs bloom join algorithm to reduce
the volume of data transmitted through the network."

The filter is the classic bit-array + k hash functions construction; the two
properties the join relies on are (a) **no false negatives** — a matching
row is never filtered out, so bloom joins stay exact — and (b) a tunable,
small false-positive rate — a few non-matching rows may still be shipped and
are discarded by the real join.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

from repro.errors import BestPeerError
from repro.sqlengine.types import canonical_key


class BloomFilter:
    """A fixed-size Bloom filter over arbitrary hashable values."""

    def __init__(
        self,
        expected_keys: int,
        bits_per_key: int = 10,
        num_hashes: int = 4,
    ) -> None:
        if expected_keys < 1:
            raise BestPeerError(f"expected_keys must be >= 1: {expected_keys}")
        if bits_per_key < 1 or num_hashes < 1:
            raise BestPeerError("bits_per_key and num_hashes must be >= 1")
        self.num_bits = expected_keys * bits_per_key
        self.num_hashes = num_hashes
        # Bit ``p`` is bit ``p % 8`` of byte ``p // 8``: setting or testing
        # one touches one byte, where a big int copies the whole filter.
        self._bits = bytearray(self.size_bytes)
        self._count = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, value: object) -> None:
        bits = self._bits
        for position in self._positions(value):
            bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def __contains__(self, value: object) -> bool:
        bits = self._bits
        return all(
            bits[position >> 3] >> (position & 7) & 1
            for position in self._positions(value)
        )

    def update(self, values: Iterable[object]) -> None:
        for value in values:
            self.add(value)

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Wire size (what the optimization actually ships)
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return (self.num_bits + 7) // 8

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _positions(self, value: object) -> Iterator[int]:
        # Double hashing: h_i = h1 + i*h2, the standard k-hash construction.
        # Hashed by canonical key: values that compare equal (1 and 1.0)
        # must land on the same bits, or the filter has false negatives.
        digest = hashlib.sha256(repr(canonical_key(value)).encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits


def build_filter(
    values: Iterable[object], bits_per_key: int = 10, num_hashes: int = 4
) -> BloomFilter:
    """Build a filter sized for ``values`` (at least one slot)."""
    collected = list(values)
    bloom = BloomFilter(
        expected_keys=max(1, len(collected)),
        bits_per_key=bits_per_key,
        num_hashes=num_hashes,
    )
    bloom.update(collected)
    return bloom
