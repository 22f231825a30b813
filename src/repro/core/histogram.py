"""Multi-dimensional histograms (MHIST) with iDistance bucket mapping (§5.1).

"Since attributes in a relation are correlated, single-dimensional
histograms are not sufficient ... BestPeer++ adopts MHIST [17] to build
multi-dimensional histograms adaptively. Each normal peer invokes MHIST to
iteratively split the attribute which is most valuable for building
histograms until enough histogram buckets are generated. Then, the buckets
(multi-dimensional hypercube) are mapped into one dimensional ranges using
iDistance [12] and we index the buckets in BATON based on their ranges."

The module provides:

* :class:`Histogram` — MHIST-style construction plus the paper's three
  estimators: relation size ES(R), region count EC(H, Q_R), and pairwise
  join result size ES(q),
* :func:`idistance_key` — the hypercube -> 1-D mapping for BATON indexing.
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BestPeerError

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def numeric_value(value: object) -> Optional[float]:
    """Map a column value onto the histogram's numeric axis.

    Numbers pass through; ISO dates (the engine's DATE representation) map
    to their ordinal day number so date histograms and date query regions
    work; everything else (free text, NULL, a date-shaped string that is no
    calendar day — DATE columns check the pattern only) is not
    histogrammable and yields ``None``.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and _DATE_RE.match(value):
        try:
            return float(datetime.date.fromisoformat(value).toordinal())
        except ValueError:  # '1998-02-30'
            return None
    return None


@dataclass
class Bucket:
    """One histogram bucket: a hypercube with a tuple count."""

    lows: Tuple[float, ...]
    highs: Tuple[float, ...]
    count: int

    def volume(self) -> float:
        """Area(H_i): the region covered by the bucket."""
        volume = 1.0
        for low, high in zip(self.lows, self.highs):
            volume *= max(high - low, 0.0)
        return volume

    def overlap_volume(
        self, query_lows: Sequence[Optional[float]],
        query_highs: Sequence[Optional[float]],
    ) -> float:
        """Area_o(H_i, Q_R): overlap between the bucket and the query region."""
        volume = 1.0
        for low, high, query_low, query_high in zip(
            self.lows, self.highs, query_lows, query_highs
        ):
            effective_low = low if query_low is None else max(low, query_low)
            effective_high = high if query_high is None else min(high, query_high)
            width = effective_high - effective_low
            if width <= 0:
                return 0.0
            volume *= width
        return volume

    def contains_point(self, point: Sequence[float]) -> bool:
        return all(
            low <= value <= high
            for low, high, value in zip(self.lows, self.highs, point)
        )

    def center(self) -> Tuple[float, ...]:
        return tuple(
            (low + high) / 2.0 for low, high in zip(self.lows, self.highs)
        )


class Histogram:
    """An MHIST multi-dimensional histogram over numeric columns."""

    def __init__(
        self, columns: Sequence[str], buckets: List[Bucket]
    ) -> None:
        if not columns:
            raise BestPeerError("a histogram needs at least one column")
        self.columns = [column.lower() for column in columns]
        self.buckets = buckets

    # ------------------------------------------------------------------
    # Construction (MHIST: iterative splitting of the most valuable bucket)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        columns: Sequence[str],
        rows: Sequence[Sequence[float]],
        num_buckets: int = 16,
    ) -> "Histogram":
        """Build an MHIST histogram from ``rows`` of numeric column values.

        Starting from one bucket covering the bounding box, repeatedly split
        the bucket holding the most tuples along its highest-spread dimension
        at the median, "until enough histogram buckets are generated".
        """
        if num_buckets < 1:
            raise BestPeerError(f"need at least one bucket: {num_buckets}")
        columns = [column.lower() for column in columns]
        axes = []
        for vector in zip(*rows):
            if set(map(type, vector)) <= {str, type(None)}:
                # Dates repeat: convert each distinct one once.
                axis = {value: numeric_value(value) for value in dict.fromkeys(vector)}
                axes.append(map(axis.__getitem__, vector))
            else:
                axes.append(map(numeric_value, vector))
        points = [point for point in zip(*axes) if None not in point]
        if not points:
            zero = tuple(0.0 for _ in columns)
            return cls(columns, [Bucket(zero, zero, 0)])

        dimensions = len(columns)
        lows = tuple(min(point[d] for point in points) for d in range(dimensions))
        highs = tuple(max(point[d] for point in points) for d in range(dimensions))
        # Working state: (bucket, member points).
        working: List[Tuple[Bucket, List[tuple]]] = [
            (Bucket(lows, highs, len(points)), points)
        ]

        while len(working) < num_buckets:
            candidate_index = max(
                range(len(working)), key=lambda i: working[i][0].count
            )
            bucket, members = working[candidate_index]
            split = cls._split_bucket(bucket, members)
            if split is None:
                break  # nothing left to split (all points identical)
            working[candidate_index : candidate_index + 1] = split
        return cls(columns, [bucket for bucket, _ in working])

    @staticmethod
    def _split_bucket(
        bucket: Bucket, members: List[tuple]
    ) -> Optional[List[Tuple[Bucket, List[tuple]]]]:
        """Split at the median of the most-spread dimension, MaxDiff style."""
        dimensions = len(bucket.lows)
        best_dimension = None
        best_spread = 0.0
        for dimension in range(dimensions):
            values = [point[dimension] for point in members]
            spread = max(values) - min(values)
            if spread > best_spread:
                best_spread = spread
                best_dimension = dimension
        if best_dimension is None:
            return None
        values = sorted(point[best_dimension] for point in members)
        median = values[len(values) // 2]
        if median == values[0]:
            # Degenerate median; split just above the minimum instead.
            above = [v for v in values if v > median]
            if not above:
                return None
            median = above[0]
        left_members = [p for p in members if p[best_dimension] < median]
        right_members = [p for p in members if p[best_dimension] >= median]
        if not left_members or not right_members:
            return None
        left_highs = list(bucket.highs)
        left_highs[best_dimension] = median
        right_lows = list(bucket.lows)
        right_lows[best_dimension] = median
        return [
            (
                Bucket(bucket.lows, tuple(left_highs), len(left_members)),
                left_members,
            ),
            (
                Bucket(tuple(right_lows), bucket.highs, len(right_members)),
                right_members,
            ),
        ]

    # ------------------------------------------------------------------
    # Estimators (§5.1)
    # ------------------------------------------------------------------
    def relation_size(self) -> int:
        """ES(R) = Σ_i H(R)_i."""
        return sum(bucket.count for bucket in self.buckets)

    def region_count(
        self,
        lows: Dict[str, Optional[float]] = None,
        highs: Dict[str, Optional[float]] = None,
    ) -> float:
        """EC(H(R)) = Σ_i H(R)_i · Area_o(H_i, Q_R) / Area(H_i).

        Bounds may be numbers or ISO date strings (converted like the data).
        """
        query_lows = [
            numeric_value((lows or {}).get(column)) for column in self.columns
        ]
        query_highs = [
            numeric_value((highs or {}).get(column)) for column in self.columns
        ]
        total = 0.0
        for bucket in self.buckets:
            area = bucket.volume()
            if area <= 0.0:
                # A degenerate (point) bucket is inside the region iff its
                # corner satisfies the constraints.
                inside = all(
                    (ql is None or value >= ql) and (qh is None or value <= qh)
                    for value, ql, qh in zip(bucket.lows, query_lows, query_highs)
                )
                total += bucket.count if inside else 0
                continue
            overlap = bucket.overlap_volume(query_lows, query_highs)
            total += bucket.count * (overlap / area)
        return total

    def selectivity(
        self,
        lows: Dict[str, Optional[float]] = None,
        highs: Dict[str, Optional[float]] = None,
    ) -> float:
        """Fraction of tuples inside the query region (g(i) in Table 3)."""
        size = self.relation_size()
        if size == 0:
            return 0.0
        return min(1.0, self.region_count(lows, highs) / size)


def estimate_join_size(
    left: Histogram,
    right: Histogram,
    query_widths: Sequence[float],
    left_lows: Dict[str, Optional[float]] = None,
    left_highs: Dict[str, Optional[float]] = None,
    right_lows: Dict[str, Optional[float]] = None,
    right_highs: Dict[str, Optional[float]] = None,
) -> float:
    """ES(q) = EC(H(R_x)) · EC(H(R_y)) / Π_i W_i   (§5.1).

    ``query_widths`` are the widths W_i of the queried region per join
    dimension.
    """
    if any(width <= 0 for width in query_widths):
        raise BestPeerError("query region widths must be positive")
    numerator = left.region_count(left_lows, left_highs) * right.region_count(
        right_lows, right_highs
    )
    denominator = 1.0
    for width in query_widths:
        denominator *= width
    return numerator / denominator


# ----------------------------------------------------------------------
# iDistance mapping (§5.1: buckets -> one-dimensional ranges)
# ----------------------------------------------------------------------
def idistance_key(
    point: Sequence[float],
    reference_points: Sequence[Sequence[float]],
    partition_width: float = 1.0,
) -> float:
    """Map a point to its iDistance key.

    iDistance assigns each point to its nearest reference point ``O_j`` and
    keys it as ``j · c + dist(point, O_j)`` where ``c`` (the partition
    width) exceeds any intra-partition distance — giving every partition a
    disjoint one-dimensional range.
    """
    if not reference_points:
        raise BestPeerError("iDistance needs at least one reference point")
    best_index = 0
    best_distance = math.inf
    for index, reference in enumerate(reference_points):
        distance = math.dist(point, reference)
        if distance < best_distance:
            best_distance = distance
            best_index = index
    return best_index * partition_width + best_distance


def bucket_idistance_ranges(
    histogram: Histogram,
    reference_points: Sequence[Sequence[float]],
    partition_width: float = 1.0,
) -> List[Tuple[float, Bucket]]:
    """The 1-D key of every bucket (by its center), for BATON indexing."""
    return [
        (
            idistance_key(bucket.center(), reference_points, partition_width),
            bucket,
        )
        for bucket in histogram.buckets
    ]
