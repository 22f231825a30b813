"""Column types and value coercion.

The engine supports the types the TPC-H schema needs.  DATE values are stored
as ISO-8601 strings (``YYYY-MM-DD``): ISO dates compare correctly as strings,
which keeps comparison semantics trivial and serialization cheap.
"""

from __future__ import annotations

import enum
import marshal
import re
from typing import Optional, Sequence

from repro.errors import SqlTypeError

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class ColumnType(enum.Enum):
    """Supported column types."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"

    def coerce(self, value: object) -> object:
        """Validate/convert ``value`` to this type; ``None`` passes through."""
        if value is None:
            return None
        if self is ColumnType.INTEGER:
            return _coerce_integer(value)
        if self is ColumnType.FLOAT:
            return _coerce_float(value)
        if self is ColumnType.DATE:
            return _coerce_date(value)
        return _coerce_text(value)

    def byte_size(self, value: object) -> int:
        """Approximate on-the-wire size of a value of this type."""
        if value is None:
            return 1
        if self is ColumnType.INTEGER or self is ColumnType.FLOAT:
            return 8
        if self is ColumnType.DATE:
            return 10
        return len(str(value)) + 4

    def coerce_vector(self, vector: Sequence[object]) -> Sequence[object]:
        """Column-at-a-time :meth:`coerce`.

        One C-level pass proves the common case — every value already is
        this type's Python type (``bool`` is its own type, so it fails an
        INTEGER column here and is rejected below) — and the vector comes
        back as is.  Anything else is coerced value by value into a new
        list, raising exactly as :meth:`coerce` does.
        """
        kinds = set(map(type, vector))
        kinds.discard(type(None))
        if kinds <= {_PYTHON_TYPE[self]} and (
            self is not ColumnType.DATE
            # A str is not yet a DATE; dates repeat, so check each once.
            or all(map(_DATE_RE.match, set(vector) - {None}))
        ):
            return vector
        return [self.coerce(value) for value in vector]

    def vector_byte_size(self, vector: Sequence[object]) -> int:
        """Sum of :meth:`byte_size` over ``vector`` without a per-value call."""
        nulls = vector.count(None)
        present = len(vector) - nulls
        if self is not ColumnType.TEXT:
            return (10 if self is ColumnType.DATE else 8) * present + nulls
        values = [value for value in vector if value is not None] if nulls else vector
        try:
            return sum(map(len, values)) + 4 * present + nulls
        except TypeError:  # not coerced yet: numbers priced as their text
            return sum(len(str(value)) for value in values) + 4 * present + nulls


#: The Python type a coerced, non-NULL value of each column type has.
_PYTHON_TYPE = {
    ColumnType.INTEGER: int,
    ColumnType.FLOAT: float,
    ColumnType.TEXT: str,
    ColumnType.DATE: str,
}


def _coerce_integer(value: object) -> int:
    if isinstance(value, bool):
        raise SqlTypeError(f"booleans are not INTEGER values: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise SqlTypeError(f"not an INTEGER: {value!r}")


def _coerce_float(value: object) -> float:
    if isinstance(value, bool):
        raise SqlTypeError(f"booleans are not FLOAT values: {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise SqlTypeError(f"not a FLOAT: {value!r}")


def _coerce_date(value: object) -> str:
    if isinstance(value, str):
        if _DATE_RE.match(value):
            return value
        raise SqlTypeError(f"not an ISO date (YYYY-MM-DD): {value!r}")
    # datetime.date and datetime.datetime both render ISO via isoformat.
    isoformat = getattr(value, "isoformat", None)
    if callable(isoformat):
        text = isoformat()[:10]
        if _DATE_RE.match(text):
            return text
    raise SqlTypeError(f"not a DATE: {value!r}")


def _coerce_text(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise SqlTypeError(f"not a TEXT value: {value!r}")


def canonical_key(key: object) -> object:
    """One representative for every key that compares equal to ``key``.

    ``1``, ``1.0`` and ``True`` are equal (and hash equal) in Python, so a
    join or GROUP BY treats them as one key; anything that places a key by
    its ``repr`` — the shuffle partitioner, the bloom filter — must place
    them together too.  ``bool`` and integral ``float`` become ``int``,
    element-wise through tuples; every other key, ``int`` and ``str``
    included, is returned unchanged.
    """
    if type(key) is int:  # by far the commonest key, and already canonical
        return key
    if isinstance(key, float):
        return int(key) if key.is_integer() else key
    if isinstance(key, int):  # bool and other int subclasses
        return int(key)
    if isinstance(key, tuple):
        return tuple(map(canonical_key, key))
    return key


def exact_key(row: Sequence[object]) -> object:
    """A key equal for two rows only if their values are alike in type and
    value, which ``==`` does not promise (``1 == 1.0 == True``,
    ``0.0 == -0.0``): the row's marshal encoding, version 2 (later versions
    add flags that depend on object identity, not value), or, for a value
    marshal refuses (an int subclass, a ``date``), the type and repr of
    each value.  Two rows with one key are rows the snapshot differential's
    merge cancels too: it compares type-tagged encodings and reprs."""
    try:
        return marshal.dumps(row, 2)
    except ValueError:
        return tuple(zip(map(type, row), map(repr, row)))


def value_byte_size(value: object, column_type: Optional[ColumnType] = None) -> int:
    """Size of ``value`` in bytes; infers the type when not supplied."""
    if column_type is not None:
        return column_type.byte_size(value)
    if value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    return len(str(value)) + 4
