"""Adaptive query processing (Algorithm 2, §5.5).

"When a query is submitted, the query planner retrieves related histogram
and index information from the bootstrap node, analyzes the query and
constructs a processing graph for the query. Then the costs of both the P2P
engine and MapReduce engine are predicted ... The query planner compares the
costs between two methods and executes the one with lower cost."

The estimator turns the compiled plan into the cost model's level specs:

* ``S(T_i)`` — the table's global size (bytes), summed over peers' published
  statistics,
* ``g(i)`` — the selectivity of the level's predicates, estimated from the
  table's histogram when one is registered (else a neutral default),
* ``t(T_i)`` — the number of peers hosting the table, from the table index.

A feedback loop (:class:`~repro.core.costmodel.FeedbackCalibrator`) adjusts
the per-engine network ratios from measured runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.costmodel import (
    CostEstimate,
    CostParams,
    FeedbackCalibrator,
    LevelSpec,
    estimate,
)
from repro.core.engine_basic import BasicEngine
from repro.core.engine_mapreduce import BestPeerMapReduceEngine
from repro.core.engine_parallel import ParallelP2PEngine
from repro.core.execution import EngineContext, QueryExecution
from repro.core.histogram import Histogram
from repro.core.predicates import range_constraint
from repro.core.processing_graph import ProcessingGraph
from repro.mapreduce.engine import MapReduceConfig
from repro.plan.sms import DistributedPlan
from repro.sqlengine.expr import Expr
from repro.sqlengine.planner import split_conjuncts

DEFAULT_SELECTIVITY = 0.5


@dataclass
class TableStatistics:
    """Per-table global statistics held by the statistics module."""

    table: str
    total_bytes: float
    row_count: int
    histogram: Optional[Histogram] = None


@dataclass
class AdaptiveDecision:
    """What the planner decided for one query, for inspection."""

    chosen_engine: str
    estimate: CostEstimate
    levels: List[LevelSpec]
    graph: ProcessingGraph


class AdaptiveEngine:
    """Algorithm 2: predict both engines' costs, run the cheaper one."""

    def __init__(
        self,
        context: EngineContext,
        params: Optional[CostParams] = None,
        mr_config: Optional[MapReduceConfig] = None,
        statistics: Optional[Dict[str, TableStatistics]] = None,
    ) -> None:
        self.context = context
        self.calibrator = FeedbackCalibrator(params or CostParams())
        self.statistics = statistics or {}
        self._parallel = ParallelP2PEngine(context)
        self._basic = BasicEngine(context)
        self._mapreduce = BestPeerMapReduceEngine(context, mr_config)
        self.last_decision: Optional[AdaptiveDecision] = None

    # ------------------------------------------------------------------
    # Statistics registration (fed by the bootstrap's statistics module)
    # ------------------------------------------------------------------
    def register_statistics(self, stats: TableStatistics) -> None:
        self.statistics[stats.table.lower()] = stats

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        user: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> QueryExecution:
        _, plan = self.context.planner.compile_text(sql)
        decision = self.plan_decision(plan)
        self.last_decision = decision

        if decision.chosen_engine == "p2p":
            # "The original P2P strategy executes this query by first
            # fetching all qualified tuples to the query submitting peer"
            # (§6.1.11) — the P2P choice runs the basic fetch-and-process
            # engine; the replicated-join executor remains available as the
            # explicit "parallel" engine.
            execution = self._basic.execute(sql, user, timestamp)
            predicted = decision.estimate.p2p
            engine_name = "p2p"
        else:
            execution = self._mapreduce.execute(sql, user, timestamp)
            predicted = decision.estimate.mapreduce
            engine_name = "mapreduce"

        # Feedback loop: normalize measured seconds into the model's byte
        # units via mu (bytes one node processes per second).
        measured_model_units = execution.latency_s * self.calibrator.params.mu
        self.calibrator.observe(engine_name, predicted, measured_model_units)
        return execution

    # ------------------------------------------------------------------
    # Cost prediction
    # ------------------------------------------------------------------
    def plan_decision(self, plan: DistributedPlan) -> AdaptiveDecision:
        levels = self.levels_for(plan)
        graph = ProcessingGraph.from_plan(plan, self._partitions(plan))
        if not levels:
            # No joins and no aggregation: the P2P engine trivially wins
            # (the paper's low-overhead query class).
            return AdaptiveDecision(
                chosen_engine="p2p",
                estimate=CostEstimate(p2p=0.0, mapreduce=float("inf")),
                levels=[],
                graph=graph,
            )
        base_size = self._table_bytes(
            plan.base.table, self._where_conjuncts(plan)
        )
        costs = estimate(self.calibrator.params, levels, base_size)
        return AdaptiveDecision(
            chosen_engine=costs.cheaper_engine,
            estimate=costs,
            levels=levels,
            graph=graph,
        )

    def levels_for(self, plan: DistributedPlan) -> List[LevelSpec]:
        """Translate a compiled plan into cost-model level specs.

        The join selectivity ``g(i)`` is derived from the foreign-key join
        estimate ES(q) of §5.1: the intermediate result after joining a
        table of size S to a stream of size s carries roughly ``s + S``
        bytes (each stream row matches its FK parent / children, so bytes
        accumulate rather than multiply).  Solving ``s·S·g = s + S`` for g
        gives the per-level selectivity the literal Eq. (5) product then
        reproduces.
        """
        specs: List[LevelSpec] = []
        conjuncts = self._where_conjuncts(plan)
        stream_bytes = self._table_bytes(plan.base.table, conjuncts)
        for stage in plan.joins:
            table = stage.right.table
            table_bytes = self._table_bytes(table, conjuncts)
            joined_bytes = stream_bytes + table_bytes
            if stream_bytes > 0 and table_bytes > 1:
                selectivity = min(
                    1.0, max(1e-9, joined_bytes / (stream_bytes * table_bytes))
                )
            else:
                selectivity = DEFAULT_SELECTIVITY
            specs.append(
                LevelSpec(
                    table=table,
                    table_size=table_bytes,
                    selectivity=selectivity,
                    partitions=self._partition_count(table),
                )
            )
            stream_bytes = joined_bytes
        if plan.aggregate is not None and specs:
            # The GROUP BY level re-shuffles the last intermediate result.
            last = specs[-1]
            specs.append(
                LevelSpec(
                    table=f"groupby({last.table})",
                    table_size=1.0,
                    selectivity=1.0,
                    partitions=last.partitions,
                )
            )
        return specs

    def _where_conjuncts(self, plan: DistributedPlan) -> List[Expr]:
        if plan.statement is None or plan.statement.where is None:
            return []
        return split_conjuncts(plan.statement.where)

    def _table_bytes(self, table: str, conjuncts: List[Expr]) -> float:
        """S(T_i), scaled by the histogram selectivity of its predicates."""
        stats = self.statistics.get(table)
        if stats is None:
            return 1.0
        size = stats.total_bytes
        if stats.histogram is not None:
            constraint = range_constraint(
                self.context.schemas[table], conjuncts
            )
            if constraint is not None:
                column, low, high = constraint
                if column in stats.histogram.columns:
                    selectivity = stats.histogram.selectivity(
                        lows={column: low}, highs={column: high}
                    )
                    size *= max(1e-6, min(1.0, selectivity))
        return max(1.0, size)

    def _partition_count(self, table: str) -> int:
        peers, _, _ = self.context.indexer.peers_for_table(table)
        return max(1, len(peers))

    def _partitions(self, plan: DistributedPlan) -> Dict[str, int]:
        tables = [local_plan.table for local_plan in plan.local_plans]
        return {table: self._partition_count(table) for table in tables}
