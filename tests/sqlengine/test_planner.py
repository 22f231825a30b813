"""Unit tests for the local query planner's plan shapes."""

import pytest

from repro.errors import SqlExecutionError
from repro.sqlengine import (
    EXECUTION_MODES,
    Column,
    ColumnType,
    Database,
    TableSchema,
)
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import (
    DistinctNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    Planner,
    ProjectNode,
    ScanNode,
    SortNode,
)


@pytest.fixture
def catalog():
    db = Database()
    db.execute(
        "CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER, v FLOAT)"
    )
    db.execute("CREATE TABLE s (id INTEGER PRIMARY KEY, r_id INTEGER)")
    db.execute("CREATE INDEX idx_r_k ON r (k)")
    return db._tables


def plan_of(catalog, sql):
    return Planner(catalog).plan(parse(sql))


def unwrap(plan, *node_types):
    """Descend through the given single-child node types."""
    for node_type in node_types:
        assert isinstance(plan, node_type), f"expected {node_type}, got {plan}"
        plan = getattr(plan, "child", None)
    return plan


class TestScanPlans:
    def test_plain_select_is_project_over_scan(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r")
        scan = unwrap(plan, ProjectNode)
        assert isinstance(scan, ScanNode)
        assert scan.index_access is None
        assert scan.predicate is None

    def test_equality_on_pk_uses_index(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r WHERE id = 5")
        scan = unwrap(plan, ProjectNode)
        assert scan.index_access is not None
        assert scan.index_access.is_equality
        assert scan.index_access.eq_value == 5

    def test_range_on_secondary_index(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r WHERE k > 10")
        scan = unwrap(plan, ProjectNode)
        access = scan.index_access
        assert access is not None
        assert access.low == 10
        assert not access.low_inclusive
        assert access.high is None

    def test_unindexed_column_scans(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r WHERE v > 1.0")
        scan = unwrap(plan, ProjectNode)
        assert scan.index_access is None
        assert scan.predicate is not None

    def test_flipped_comparison_normalized(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r WHERE 10 < k")
        scan = unwrap(plan, ProjectNode)
        assert scan.index_access.low == 10

    @pytest.mark.parametrize(
        "where", ["k > 10", "k = 4", "10 >= k", "k BETWEEN 2 AND 7"]
    )
    def test_index_access_drops_the_conjunct_it_proves(self, catalog, where):
        scan = unwrap(plan_of(catalog, f"SELECT v FROM r WHERE {where}"), ProjectNode)
        assert scan.index_access is not None
        assert scan.predicate is None

    def test_other_conjuncts_stay_as_the_residual(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r WHERE v < 2.0 AND k > 10 AND k > 11")
        scan = unwrap(plan, ProjectNode)
        assert scan.index_access.low == 10  # the first indexable conjunct
        assert scan.predicate.to_sql() == "((v < 2.0) AND (k > 11))"

    @pytest.mark.parametrize(
        "where",
        ["k = NULL", "k > NULL", "NULL < k", "k BETWEEN NULL AND 5",
         "k BETWEEN 1 AND NULL", "k > 'x'", "k BETWEEN 1 AND 'x'"],
    )
    def test_null_or_wrong_kind_literal_is_not_an_index_access(self, catalog, where):
        scan = unwrap(plan_of(catalog, f"SELECT v FROM r WHERE {where}"), ProjectNode)
        assert scan.index_access is None
        assert scan.predicate is not None  # left to the residual filter

    def test_float_literal_probes_an_integer_index(self, catalog):
        scan = unwrap(plan_of(catalog, "SELECT v FROM r WHERE k >= 2.5"), ProjectNode)
        assert scan.index_access.low == 2.5


@pytest.mark.parametrize("mode", EXECUTION_MODES)
class TestIndexLiteralsInEveryMode:
    """NULL / wrong-kind literals on an indexed column behave like a full scan."""

    @pytest.fixture
    def db(self, mode):
        db = Database(execution_mode=mode)
        db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, d DATE)")
        db.table("r").insert_many([(k, "1995-01-%02d" % (k % 28 + 1)) for k in range(100)])
        return db

    @pytest.mark.parametrize("where", ["id = NULL", "id > NULL"])
    def test_null_literal_selects_nothing_through_the_filter(self, db, where):
        sql = f"SELECT id FROM r WHERE {where}"
        assert db.explain(sql).endswith(
            f"Scan r AS r (full scan) filter (id {where.split()[1]} NULL)"
        )
        result = db.execute(sql)
        assert result.rows == []
        assert (result.stats.index_probes, result.stats.rows_scanned) == (0, 100)

    @pytest.mark.parametrize("where", ["id > 'x'", "d > 5", "id BETWEEN 1 AND 'x'"])
    def test_wrong_kind_literal_raises_the_sql_error(self, db, where):
        # BETWEEN over incomparable values is a raw TypeError in the
        # reference evaluator; the comparisons are SqlExecutionError.
        expected = TypeError if "BETWEEN" in where else SqlExecutionError
        with pytest.raises(expected):
            db.execute(f"SELECT id FROM r WHERE {where}")

    def test_proven_conjunct_is_gone_from_explain(self, db):
        sql = "SELECT id FROM r WHERE id > 89 AND d > DATE '1995-01-10'"
        assert db.explain(sql).endswith(
            "Scan r AS r (index range id in [89, +inf]) filter (d > '1995-01-10')"
        )
        result = db.execute(sql)
        assert sorted(result.rows) == [(k,) for k in range(90, 100) if k % 28 + 1 > 10]
        assert (result.stats.index_probes, result.stats.rows_scanned) == (1, 10)


class TestJoinPlans:
    def test_comma_join_becomes_hash_join(self, catalog):
        plan = plan_of(
            catalog, "SELECT r.v FROM r, s WHERE r.id = s.r_id"
        )
        join = unwrap(plan, ProjectNode)
        assert isinstance(join, JoinNode)
        assert join.equi_keys  # hash join, not nested loop
        assert join.condition is None  # fully absorbed into equi keys

    def test_non_equi_condition_kept_in_join(self, catalog):
        plan = plan_of(catalog, "SELECT r.v FROM r, s WHERE r.id > s.r_id")
        join = unwrap(plan, ProjectNode)
        assert isinstance(join, JoinNode)
        assert not join.equi_keys
        assert join.condition is not None

    def test_single_table_filters_pushed_below_join(self, catalog):
        plan = plan_of(
            catalog,
            "SELECT r.v FROM r, s WHERE r.id = s.r_id AND r.k > 3",
        )
        join = unwrap(plan, ProjectNode)
        left = join.left
        assert isinstance(left, ScanNode)
        assert left.index_access is not None  # k > 3 drives the index


class TestAggregatePlans:
    def test_group_by_node_inserted(self, catalog):
        plan = plan_of(catalog, "SELECT k, COUNT(*) FROM r GROUP BY k")
        group = unwrap(plan, ProjectNode)
        assert isinstance(group, GroupByNode)
        assert len(group.aggregates) == 1

    def test_having_becomes_filter_above_group(self, catalog):
        plan = plan_of(
            catalog,
            "SELECT k, COUNT(*) FROM r GROUP BY k HAVING COUNT(*) > 1",
        )
        having = unwrap(plan, ProjectNode)
        assert isinstance(having, FilterNode)
        assert isinstance(having.child, GroupByNode)

    def test_scalar_aggregate_without_group(self, catalog):
        plan = plan_of(catalog, "SELECT SUM(v) FROM r")
        group = unwrap(plan, ProjectNode)
        assert isinstance(group, GroupByNode)
        assert group.group_exprs == ()


class TestOrderingPlans:
    def test_order_by_projected_column_sorts_above(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r ORDER BY v")
        assert isinstance(plan, SortNode)
        assert isinstance(plan.child, ProjectNode)

    def test_order_by_dropped_column_sorts_below(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r ORDER BY k")
        assert isinstance(plan, ProjectNode)
        assert isinstance(plan.child, SortNode)

    def test_limit_is_outermost(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r ORDER BY v LIMIT 3")
        assert isinstance(plan, LimitNode)
        assert isinstance(plan.child, SortNode)

    def test_distinct_above_project(self, catalog):
        plan = plan_of(catalog, "SELECT DISTINCT v FROM r")
        assert isinstance(plan, DistinctNode)
        assert isinstance(plan.child, ProjectNode)
