"""Tests for the SMS planner's compilation of the benchmark query family."""

import pytest

from repro.errors import SqlExecutionError
from repro.plan import SmsPlanner
from repro.tpch import Q1, Q2, Q3, Q4, Q5, TPCH_SCHEMAS


@pytest.fixture
def planner():
    return SmsPlanner(TPCH_SCHEMAS)


class TestJobCounts:
    """The per-query job counts the paper reports."""

    def test_q1_is_one_map_only_job(self, planner):
        plan = planner.compile(Q1())
        assert plan.num_jobs == 1
        assert not plan.joins
        assert plan.aggregate is None

    def test_q2_is_one_job_with_partial_aggregation(self, planner):
        plan = planner.compile(Q2())
        assert plan.num_jobs == 1
        assert plan.aggregate is not None
        assert plan.aggregate.partials is not None

    def test_q3_is_one_join_job(self, planner):
        plan = planner.compile(Q3())
        assert len(plan.joins) == 1
        assert plan.aggregate is None
        assert plan.num_jobs == 1

    def test_q4_is_two_jobs(self, planner):
        plan = planner.compile(Q4())
        assert len(plan.joins) == 1
        assert plan.aggregate is not None
        assert plan.num_jobs == 2

    def test_q5_is_four_jobs(self, planner):
        plan = planner.compile(Q5())
        assert len(plan.joins) == 3
        assert plan.aggregate is not None
        assert plan.num_jobs == 4


class TestPushdown:
    def test_selection_pushed_into_local_sql(self, planner):
        plan = planner.compile(Q1())
        assert "l_shipdate" in plan.base.sql
        assert "WHERE" in plan.base.sql

    def test_projection_pruned_to_needed_columns(self, planner):
        plan = planner.compile(Q3())
        # lineitem has 16 columns; only the referenced ones survive.
        lineitem_cols = [
            col for col in plan.columns_after_joins if "lineitem." in col
        ]
        assert 0 < len(lineitem_cols) < 8

    def test_join_keys_resolved(self, planner):
        plan = planner.compile(Q3())
        stage = plan.joins[0]
        assert stage.left_key == "orders.o_orderkey"
        assert stage.right_key == "lineitem.l_orderkey"

    def test_q5_residual_nation_predicate(self, planner):
        plan = planner.compile(Q5())
        residuals = [
            stage.residual for stage in plan.joins if stage.residual is not None
        ]
        assert len(residuals) == 1
        assert "nationkey" in residuals[0].to_sql().lower()

    def test_q2_partial_sql_contains_partial_aggregate(self, planner):
        plan = planner.compile(Q2())
        partial = plan.aggregate.partials[0]
        assert partial.merge_ops == ["sum"]
        assert partial.finalize == "identity"

    def test_avg_decomposes_into_sum_and_count(self, planner):
        plan = planner.compile(
            "SELECT AVG(l_quantity) FROM lineitem WHERE l_discount < 0.05"
        )
        partial = plan.aggregate.partials[0]
        assert len(partial.partial_sqls) == 2
        assert partial.finalize == "div"

    def test_count_distinct_disables_pushdown(self, planner):
        plan = planner.compile("SELECT COUNT(DISTINCT l_suppkey) FROM lineitem")
        assert plan.aggregate is not None
        assert plan.aggregate.partials is None


class TestRejections:
    def test_cross_join_rejected(self, planner):
        with pytest.raises(SqlExecutionError):
            planner.compile("SELECT * FROM part, supplier")

    def test_non_select_rejected(self, planner):
        with pytest.raises(SqlExecutionError):
            planner.compile("DELETE FROM part")

    def test_left_join_rejected(self, planner):
        with pytest.raises(SqlExecutionError):
            planner.compile(
                "SELECT * FROM orders LEFT JOIN lineitem "
                "ON o_orderkey = l_orderkey"
            )
