"""Tests for the cost models (Eqs. 1-11) and processing graphs (Def. 3)."""

import pytest

from repro.core.config import PricingConfig
from repro.core.costmodel import (
    CostParams,
    FeedbackCalibrator,
    LevelSpec,
    basic_cost,
    estimate,
    intermediate_sizes,
    mapreduce_cost,
    mapreduce_workloads,
    p2p_cost,
    p2p_workloads,
)
from repro.core.processing_graph import ProcessingGraph
from repro.errors import BestPeerError
from repro.plan import SmsPlanner
from repro.tpch import Q1, Q3, Q4, Q5, TPCH_SCHEMAS


def levels(*specs):
    return [
        LevelSpec(f"t{i}", size, selectivity, partitions)
        for i, (size, selectivity, partitions) in enumerate(specs)
    ]


class TestLevelSpec:
    def test_validation(self):
        with pytest.raises(BestPeerError):
            LevelSpec("t", -1, 0.5, 1)
        with pytest.raises(BestPeerError):
            LevelSpec("t", 10, 1.5, 1)
        with pytest.raises(BestPeerError):
            LevelSpec("t", 10, 0.5, 0)


class TestIntermediateSizes:
    def test_equation_5_product(self):
        specs = levels((100.0, 0.1, 2), (50.0, 0.5, 3))
        sizes = intermediate_sizes(specs)
        assert sizes[0] == pytest.approx(10.0)         # 100 * 0.1
        assert sizes[1] == pytest.approx(10.0 * 25.0)  # * 50 * 0.5


class TestP2pCost:
    def test_equation_6_workloads(self):
        specs = levels((100.0, 0.1, 2), (50.0, 0.5, 3))
        workloads = p2p_workloads(specs)
        assert workloads[0] == pytest.approx(2 * 10.0)
        assert workloads[1] == pytest.approx(3 * 250.0)

    def test_equation_8_total(self):
        params = CostParams(alpha=1.0, beta_bp=1.0)
        specs = levels((100.0, 0.1, 2), (50.0, 0.5, 3))
        assert p2p_cost(params, specs) == pytest.approx(2.0 * (20.0 + 750.0))

    def test_more_partitions_cost_more(self):
        params = CostParams()
        few = levels((1000.0, 0.5, 2))
        many = levels((1000.0, 0.5, 50))
        assert p2p_cost(params, many) > p2p_cost(params, few)

    def test_empty_levels_rejected(self):
        with pytest.raises(BestPeerError):
            p2p_cost(CostParams(), [])


class TestMapReduceCost:
    def test_equation_9_workloads(self):
        params = CostParams(phi=100.0)
        specs = levels((100.0, 0.1, 2), (50.0, 0.5, 3))
        workloads = mapreduce_workloads(params, specs)
        assert workloads[0] == pytest.approx(1.0 + 100.0 + 100.0)
        assert workloads[1] == pytest.approx(10.0 + 50.0 + 100.0)

    def test_startup_charged_per_job(self):
        params = CostParams(alpha=0.0, beta_mr=1.0, phi=100.0)
        single = levels((10.0, 1.0, 1))
        cost = mapreduce_cost(params, single)
        assert cost >= 100.0  # even one job pays the startup constant


class TestCrossover:
    """The planner's decision logic (§5.5): small queries -> P2P, deep
    joins over large tables -> MapReduce."""

    def test_small_query_prefers_p2p(self):
        params = CostParams()
        small = levels((1e4, 0.01, 5))
        result = estimate(params, small)
        assert result.cheaper_engine == "p2p"

    def test_deep_large_join_prefers_mapreduce(self):
        params = CostParams()
        deep = levels((1e6, 0.9, 50), (1e6, 0.9, 50), (1e6, 0.9, 50))
        result = estimate(params, deep)
        assert result.cheaper_engine == "mapreduce"

    def test_crossover_in_partition_count(self):
        """Fixing the query, growing the cluster flips the winner —
        exactly the Fig. 11 behaviour."""
        params = CostParams()

        def engines_at(n):
            specs = levels((1e6, 0.5, n), (1e6, 0.5, n))
            return estimate(params, specs).cheaper_engine

        assert engines_at(1) == "p2p"
        assert engines_at(200) == "mapreduce"


class TestBasicCost:
    def test_equation_2(self):
        params = CostParams(alpha=1.0, beta_bp=2.0, gamma=10.0, mu=100.0)
        # (1+2)*N + 10*N/100 with N = 200
        assert basic_cost(params, 200) == pytest.approx(600.0 + 20.0)

    def test_pricing_config_equation_1(self):
        pricing = PricingConfig(alpha=1.0, beta=2.0, gamma=0.5)
        assert pricing.basic_cost(100, 10.0) == pytest.approx(305.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(BestPeerError):
            basic_cost(CostParams(), -1)
        with pytest.raises(BestPeerError):
            PricingConfig().basic_cost(-1, 0)


class TestFeedbackCalibrator:
    def test_underestimate_raises_ratio(self):
        calibrator = FeedbackCalibrator(CostParams())
        before = calibrator.params.beta_bp
        calibrator.observe("p2p", predicted=1.0, measured=2.0)
        assert calibrator.params.beta_bp > before

    def test_overestimate_lowers_ratio(self):
        calibrator = FeedbackCalibrator(CostParams())
        before = calibrator.params.beta_mr
        calibrator.observe("mapreduce", predicted=2.0, measured=1.0)
        assert calibrator.params.beta_mr < before

    def test_accurate_prediction_stable(self):
        calibrator = FeedbackCalibrator(CostParams())
        before = calibrator.params
        calibrator.observe("p2p", predicted=1.0, measured=1.0)
        assert calibrator.params.beta_bp == before.beta_bp

    def test_unknown_engine_rejected(self):
        with pytest.raises(BestPeerError):
            FeedbackCalibrator(CostParams()).observe("quantum", 1.0, 2.0)

    def test_invalid_smoothing(self):
        with pytest.raises(BestPeerError):
            FeedbackCalibrator(CostParams(), smoothing=0.0)


class TestProcessingGraph:
    @pytest.fixture
    def planner(self):
        return SmsPlanner(TPCH_SCHEMAS)

    def test_q1_graph_no_joins(self, planner):
        graph = ProcessingGraph.from_plan(planner.compile(Q1()))
        assert graph.depth == 1  # only the scan level above the root
        assert not graph.join_levels
        assert not graph.has_groupby

    def test_q3_graph_one_join(self, planner):
        graph = ProcessingGraph.from_plan(planner.compile(Q3()))
        assert len(graph.join_levels) == 1
        assert not graph.has_groupby
        assert graph.depth == 2  # join level + scan level

    def test_q4_graph_join_plus_groupby(self, planner):
        graph = ProcessingGraph.from_plan(planner.compile(Q4()))
        # L = x + f(y) = 1 + 1
        assert len(graph.join_levels) == 1
        assert graph.has_groupby
        assert graph.level(1).operator == "groupby"

    def test_q5_graph_definition3(self, planner):
        graph = ProcessingGraph.from_plan(
            planner.compile(Q5()),
            partitions_per_table={"orders": 10, "lineitem": 10, "supplier": 10},
        )
        # x = 3 joins, y >= 1 -> L = 4 operator levels.
        assert len(graph.join_levels) == 3
        assert graph.has_groupby
        assert graph.level(0).operator == "root"
        join_level = graph.level(4)
        assert join_level.operator == "join"
        assert join_level.node_count == 10

    def test_unknown_level_rejected(self, planner):
        graph = ProcessingGraph.from_plan(planner.compile(Q1()))
        with pytest.raises(BestPeerError):
            graph.level(99)
