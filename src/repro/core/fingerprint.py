"""32-bit Rabin fingerprinting.

The data loader "fingerprints every tuple of the tables in the two snapshots
to a unique integer. We use 32Bits Rabin fingerprinting method [18]" (§4.2).

A Rabin fingerprint treats the input as a polynomial over GF(2) and reduces
it modulo a fixed irreducible polynomial of degree 32; two byte strings get
the same fingerprint iff they are congruent mod P (collisions are possible
but astronomically unlikely at table scale).  The implementation precomputes
a byte-indexed shift table, as the classic implementations do.
"""

from __future__ import annotations

from typing import Sequence, Tuple

# x^32 + x^7 + x^3 + x^2 + 1 — an irreducible polynomial over GF(2).
# Represented without the leading x^32 term (it is implicit in the modulus).
IRREDUCIBLE_POLY = 0x0000008D
_DEGREE = 32
_MASK = (1 << _DEGREE) - 1


def _build_shift_table() -> Tuple[int, ...]:
    """table[b] = (b << 32) mod P for every byte value b."""
    table = []
    for byte in range(256):
        value = byte
        for _ in range(_DEGREE):
            carry = value >> 31
            value = (value << 1) & _MASK
            if carry:
                value ^= IRREDUCIBLE_POLY
        table.append(value)
    return tuple(table)


_SHIFT_TABLE = _build_shift_table()


def fingerprint_bytes(data: bytes) -> int:
    """The 32-bit Rabin fingerprint of a byte string."""
    value = 0
    for byte in data:
        value = ((value << 8) & _MASK) ^ byte ^ _SHIFT_TABLE[value >> 24]
    return value


def fingerprint_tuple(row: Sequence[object]) -> int:
    """Fingerprint one relational tuple.

    Values are rendered with an unambiguous, type-tagged encoding so that
    e.g. ``(1, "2")`` and ``("1", 2)`` fingerprint differently, while equal
    values of one type render alike: ``-0.0 + 0.0`` is ``0.0``.
    """
    parts = []
    for value in row:
        if value is None:
            parts.append("N|")
        else:
            if type(value) is float:
                value += 0.0
            parts.append(f"{type(value).__name__}:{value!r}|")
    return fingerprint_bytes("".join(parts).encode("utf-8"))
