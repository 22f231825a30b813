"""Processing graphs (Definition 3, §5.3).

A query with ``x`` joins and ``y`` GROUP BY attributes compiles into a graph
with levels ``L = x + f(y)`` (``f(y) = 1`` if ``y >= 1`` else 0) above the
storage level:

* nodes at level L read from BestPeer++'s storage (the local databases),
* each join operator gets one level, the GROUP BY operator one level,
* the root (level 0) is the query-submitting peer, which evaluates every
  operator not assigned to a non-root node and collects the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import BestPeerError
from repro.plan.sms import DistributedPlan


@dataclass(frozen=True)
class GraphLevel:
    """One level of the processing graph."""

    level: int  # f(v): 0 = root, L = leaves
    operator: str  # "root" | "join" | "groupby" | "scan"
    # For joins: the table joined in at this level; for scans: the table read.
    table: Optional[str] = None
    # How many nodes work in parallel at this level (t(T_i) for joins).
    node_count: int = 1


@dataclass
class ProcessingGraph:
    """Levels 0..L of a query's processing graph."""

    levels: List[GraphLevel]

    @property
    def depth(self) -> int:
        """L: the maximal level id (excluding the root)."""
        return max(level.level for level in self.levels)

    @property
    def join_levels(self) -> List[GraphLevel]:
        return [level for level in self.levels if level.operator == "join"]

    @property
    def has_groupby(self) -> bool:
        return any(level.operator == "groupby" for level in self.levels)

    def level(self, level_id: int) -> GraphLevel:
        for level in self.levels:
            if level.level == level_id:
                return level
        raise BestPeerError(f"processing graph has no level {level_id}")

    @classmethod
    def from_plan(
        cls,
        plan: DistributedPlan,
        partitions_per_table: Optional[dict] = None,
    ) -> "ProcessingGraph":
        """Build the graph for a compiled distributed plan.

        ``partitions_per_table`` maps table name -> t(T_i), the number of
        peers hosting a partition of that table (defaults to 1).
        """
        partitions = partitions_per_table or {}
        x = len(plan.joins)
        y = 1 if plan.aggregate is not None else 0
        total = x + y  # L = x + f(y)

        levels: List[GraphLevel] = [GraphLevel(0, "root")]
        # Joins occupy levels L..(y+1), innermost join deepest: the base
        # table joins the first JOIN stage at level L.
        for join_index, stage in enumerate(plan.joins):
            level_id = total - join_index
            levels.append(
                GraphLevel(
                    level=level_id,
                    operator="join",
                    table=stage.right.table,
                    node_count=max(1, partitions.get(stage.right.table, 1)),
                )
            )
        if y:
            levels.append(GraphLevel(1, "groupby"))
        # The storage level feeding the deepest operator.
        levels.append(
            GraphLevel(
                level=total + 1,
                operator="scan",
                table=plan.base.table,
                node_count=max(1, partitions.get(plan.base.table, 1)),
            )
        )
        levels.sort(key=lambda level: level.level)
        return cls(levels)
