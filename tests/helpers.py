"""Helpers shared by test modules (nothing here is collected as a test)."""

from dataclasses import asdict


def result_surface(result):
    """Everything a :class:`QueryResult` exposes, as plain data.

    The interpreted mode builds its batch from rows and derives vectors;
    the vectorized mode builds it from vectors and derives rows.  Comparing
    the whole surface checks both derivations against each other.
    """
    return {
        "columns": result.columns,
        "qualified_columns": result.qualified_columns,
        "rows": result.rows,
        "iterated": list(result),
        "vectors": [list(vector) for vector in result.batch.vectors],
        "by_name": [result.column(name) for name in result.columns],
        "len": len(result),
        "rowcount": result.rowcount,
        "byte_size": result.byte_size,
        "stats": asdict(result.stats),
    }
