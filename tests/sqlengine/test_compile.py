"""Compiled expression evaluation, the plan cache, and prepared SELECTs."""

from dataclasses import asdict

import pytest

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine import Database, EXECUTION_MODES
from repro.sqlengine.compile import (
    compile_evaluator,
    compile_key,
    compile_predicate,
)
from repro.sqlengine.expr import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    InList,
    Like,
    Literal,
    RowLayout,
)


@pytest.fixture
def db():
    database = Database("test")
    database.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept_id INTEGER, "
        "salary FLOAT)"
    )
    database.execute(
        "INSERT INTO emp VALUES "
        "(1, 'ann', 1, 100.0), (2, 'bob', 1, 80.0), "
        "(3, 'carol', 2, 120.0), (4, 'dave', 2, 90.0), "
        "(5, 'erin', NULL, NULL)"
    )
    return database


LAYOUT = RowLayout(["emp.name", "emp.salary"])


class TestCompileUnits:
    def test_column_ref_is_plain_indexing(self):
        evaluator = compile_evaluator(ColumnRef("salary"), LAYOUT)
        assert evaluator(("ann", 100.0)) == 100.0

    def test_comparison_null_propagates(self):
        expr = BinaryOp(">", ColumnRef("salary"), Literal(90))
        evaluator = compile_evaluator(expr, LAYOUT)
        assert evaluator(("ann", 100.0)) is True
        assert evaluator(("erin", None)) is None

    def test_predicate_rejects_null_and_false(self):
        expr = BinaryOp(">", ColumnRef("salary"), Literal(90))
        predicate = compile_predicate(expr, LAYOUT)
        assert predicate(("ann", 100.0)) is True
        assert predicate(("bob", 80.0)) is False
        assert predicate(("erin", None)) is False

    def test_in_list_with_null_item_is_unknown_on_miss(self):
        expr = InList(
            ColumnRef("name"), (Literal("ann"), Literal(None)), False
        )
        evaluator = compile_evaluator(expr, LAYOUT)
        assert evaluator(("ann", 1.0)) is True  # hit wins over NULL
        assert evaluator(("bob", 1.0)) is None  # miss with NULL is unknown

    def test_like_matches_reference(self):
        expr = Like(ColumnRef("name"), "a%", False)
        evaluator = compile_evaluator(expr, LAYOUT)
        assert evaluator(("ann", 1.0)) is True
        assert evaluator(("bob", 1.0)) is False

    def test_unresolvable_column_falls_back_to_interpreted_error(self):
        evaluator = compile_evaluator(ColumnRef("missing"), LAYOUT)
        with pytest.raises(SqlExecutionError):
            evaluator(("ann", 1.0))

    def test_aggregate_resolves_materialized_slot(self):
        layout = RowLayout(["dept_id", "COUNT(*)"])
        call = FuncCall("count", (), star=True)
        evaluator = compile_evaluator(call, layout)
        assert evaluator((1, 7)) == 7

    def test_compile_key_builds_tuples(self):
        key = compile_key([ColumnRef("name"), ColumnRef("salary")], LAYOUT)
        assert key(("ann", 100.0)) == ("ann", 100.0)
        single = compile_key([ColumnRef("name")], LAYOUT)
        assert single(("ann", 100.0)) == ("ann",)


class TestModeEquivalence:
    QUERIES = (
        "SELECT name, salary FROM emp WHERE salary > 85 ORDER BY salary",
        "SELECT dept_id, COUNT(*), AVG(salary) FROM emp "
        "GROUP BY dept_id ORDER BY dept_id",
        "SELECT DISTINCT dept_id FROM emp",
        "SELECT name FROM emp WHERE name LIKE '%a%' AND dept_id IS NOT NULL",
    )

    @pytest.mark.parametrize("sql", QUERIES)
    def test_rows_and_stats_identical(self, db, sql):
        db.execution_mode = "interpreted"
        interpreted = db.execute(sql)
        db.clear_plan_cache()
        db.execution_mode = "vectorized"
        vectorized = db.execute(sql)
        assert interpreted.rows == vectorized.rows
        assert asdict(interpreted.stats) == asdict(vectorized.stats)

    def test_update_and_delete_identical_across_modes(self):
        results = {}
        for mode in EXECUTION_MODES:
            database = Database("m", execution_mode=mode)
            database.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
            database.execute(
                "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, NULL)"
            )
            database.execute("UPDATE t SET b = b + 1 WHERE a >= 2")
            database.execute("DELETE FROM t WHERE b > 25")
            results[mode] = database.execute(
                "SELECT a, b FROM t ORDER BY a"
            ).rows
        assert results["interpreted"] == results["vectorized"]


class TestPlanCache:
    def test_repeated_select_hits(self, db):
        sql = "SELECT name FROM emp WHERE salary > 85"
        first = db.execute(sql)
        assert db.plan_cache_misses == 1
        assert db.plan_cache_hits == 0
        second = db.execute(sql)
        assert db.plan_cache_hits == 1
        assert first.rows == second.rows

    def test_insert_invalidates(self, db):
        sql = "SELECT COUNT(*) FROM emp"
        assert db.execute(sql).scalar() == 5
        db.execute("INSERT INTO emp VALUES (6, 'fay', 3, 70.0)")
        # The catalogue version moved: the cached plan must not serve
        # stale row sets (it re-plans and recounts).
        assert db.execute(sql).scalar() == 6
        assert db.plan_cache_misses == 2

    def test_direct_table_mutation_invalidates(self, db):
        sql = "SELECT COUNT(*) FROM emp"
        assert db.execute(sql).scalar() == 5
        # Loaders bypass SQL and mutate the Table directly; the version
        # counter lives at the Table layer so the cache still notices.
        db.table("emp").insert_many([(7, 'gus', 3, 60.0)])
        assert db.execute(sql).scalar() == 6

    def test_lru_evicts_oldest(self):
        database = Database("small", plan_cache_size=2)
        database.execute("CREATE TABLE t (a INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        database.execute("SELECT a FROM t")
        database.execute("SELECT a FROM t WHERE a > 0")
        database.execute("SELECT a FROM t WHERE a > 1")
        assert database.plan_cache_len == 2
        # The first statement was evicted: running it again is a miss.
        misses = database.plan_cache_misses
        database.execute("SELECT a FROM t")
        assert database.plan_cache_misses == misses + 1

    def test_clear_plan_cache(self, db):
        db.execute("SELECT name FROM emp")
        assert db.plan_cache_len == 1
        db.clear_plan_cache()
        assert db.plan_cache_len == 0


class TestPreparedSelect:
    def test_prepare_and_execute_elsewhere(self, db):
        other = Database("peer")
        other.execute(
            "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, "
            "dept_id INTEGER, salary FLOAT)"
        )
        other.execute("INSERT INTO emp VALUES (9, 'zoe', 4, 55.0)")
        prepared = db.prepare("SELECT name FROM emp WHERE salary < 60")
        result = other.execute_prepared(prepared)
        assert result.rows == [("zoe",)]
        assert other.plan_cache_hits == 1

    def test_prepare_rejects_non_select(self, db):
        with pytest.raises(SqlExecutionError):
            db.prepare("DELETE FROM emp")

    def test_prepare_rejects_subqueries(self, db):
        with pytest.raises(SqlExecutionError):
            db.prepare(
                "SELECT name FROM emp WHERE dept_id IN "
                "(SELECT dept_id FROM emp WHERE salary > 100)"
            )

    def test_missing_table_raises_catalog_error(self, db):
        prepared = db.prepare("SELECT name FROM emp")
        empty = Database("empty")
        with pytest.raises(SqlCatalogError):
            empty.execute_prepared(prepared)

    def test_missing_index_falls_back_to_local_plan(self, db):
        db.execute("CREATE INDEX idx_salary ON emp (salary)")
        prepared = db.prepare("SELECT name FROM emp WHERE salary = 80.0")
        bare = Database("peer")
        bare.execute(
            "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, "
            "dept_id INTEGER, salary FLOAT)"
        )
        bare.execute("INSERT INTO emp VALUES (2, 'bob', 1, 80.0)")
        # The shipped plan probes idx_salary, which this peer lacks; the
        # fallback re-plans the SQL locally and still answers.
        result = bare.execute_prepared(prepared)
        assert result.rows == [("bob",)]


class TestByteSizeCache:
    def test_byte_size_priced_once_per_batch(self, db):
        from repro.sqlengine.types import value_byte_size

        result = db.execute("SELECT name, salary FROM emp")
        first = result.byte_size
        assert first == sum(
            value_byte_size(value) for row in result.rows for value in row
        )
        # The derived row list is a convenience copy: scribbling on it
        # cannot change the batch, so there is nothing to invalidate.
        result.rows.append(("extra-name-that-adds-bytes", 1.0))
        assert result.byte_size == first
        assert len(result) == len(result.batch) == len(result.rows) - 1
