"""End-to-end SQL execution tests against the Database facade."""

from dataclasses import asdict

import pytest

from repro.errors import SqlCatalogError, SqlError, SqlExecutionError
from repro.sqlengine import Database, EXECUTION_MODES


@pytest.fixture
def db():
    database = Database("test")
    database.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept_id INTEGER, "
        "salary FLOAT, hired DATE)"
    )
    database.execute(
        "CREATE TABLE dept (id INTEGER PRIMARY KEY, dname TEXT)"
    )
    database.execute(
        "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')"
    )
    database.execute(
        "INSERT INTO emp VALUES "
        "(1, 'ann', 1, 100.0, '2020-01-05'), "
        "(2, 'bob', 1, 80.0, '2020-03-01'), "
        "(3, 'carol', 2, 120.0, '2019-06-15'), "
        "(4, 'dave', 2, 90.0, '2021-02-20'), "
        "(5, 'erin', NULL, NULL, '2022-08-08')"
    )
    return database


class TestSelection:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM emp")
        assert len(result) == 5
        assert result.columns == ["id", "name", "dept_id", "salary", "hired"]

    def test_where_filters(self, db):
        result = db.execute("SELECT name FROM emp WHERE salary > 90")
        assert sorted(result.column("name")) == ["ann", "carol"]

    def test_null_never_matches(self, db):
        result = db.execute("SELECT name FROM emp WHERE salary < 1000000")
        assert "erin" not in result.column("name")

    def test_is_null(self, db):
        result = db.execute("SELECT name FROM emp WHERE salary IS NULL")
        assert result.column("name") == ["erin"]

    def test_between(self, db):
        result = db.execute("SELECT name FROM emp WHERE salary BETWEEN 80 AND 100")
        assert sorted(result.column("name")) == ["ann", "bob", "dave"]

    def test_in_list(self, db):
        result = db.execute("SELECT name FROM emp WHERE id IN (1, 3)")
        assert sorted(result.column("name")) == ["ann", "carol"]

    def test_like(self, db):
        result = db.execute("SELECT name FROM emp WHERE name LIKE '%a%'")
        assert sorted(result.column("name")) == ["ann", "carol", "dave"]

    def test_date_comparison(self, db):
        result = db.execute("SELECT name FROM emp WHERE hired > '2020-12-31'")
        assert sorted(result.column("name")) == ["dave", "erin"]

    def test_arithmetic_in_projection(self, db):
        result = db.execute("SELECT salary * 2 AS double_pay FROM emp WHERE id = 1")
        assert result.scalar() == 200.0

    def test_projection_alias(self, db):
        result = db.execute("SELECT name AS who FROM emp WHERE id = 1")
        assert result.columns == ["who"]

    def test_unknown_table_rejected(self, db):
        with pytest.raises(SqlCatalogError):
            db.execute("SELECT * FROM missing")

    def test_unknown_column_rejected(self, db):
        with pytest.raises((SqlCatalogError, SqlExecutionError)):
            db.execute("SELECT zzz FROM emp")


class TestIndexPaths:
    def test_pk_equality_uses_index(self, db):
        result = db.execute("SELECT name FROM emp WHERE id = 3")
        assert result.column("name") == ["carol"]
        assert result.stats.index_probes == 1
        assert result.stats.rows_scanned == 1

    def test_secondary_range_uses_index(self, db):
        db.execute("CREATE INDEX idx_salary ON emp (salary)")
        result = db.execute("SELECT name FROM emp WHERE salary >= 100")
        assert sorted(result.column("name")) == ["ann", "carol"]
        assert result.stats.index_probes == 1
        assert result.stats.rows_scanned == 2

    def test_between_uses_index(self, db):
        db.execute("CREATE INDEX idx_hired ON emp (hired)")
        result = db.execute(
            "SELECT name FROM emp WHERE hired BETWEEN '2020-01-01' AND '2020-12-31'"
        )
        assert sorted(result.column("name")) == ["ann", "bob"]
        assert result.stats.index_probes == 1

    def test_unindexed_predicate_scans(self, db):
        result = db.execute("SELECT name FROM emp WHERE name = 'ann'")
        assert result.stats.index_probes == 0
        assert result.stats.rows_scanned == 5

    def test_index_plus_residual_predicate(self, db):
        db.execute("CREATE INDEX idx_salary ON emp (salary)")
        result = db.execute(
            "SELECT name FROM emp WHERE salary >= 80 AND name LIKE '%o%'"
        )
        assert sorted(result.column("name")) == ["bob", "carol"]


class TestJoins:
    def test_comma_join(self, db):
        result = db.execute(
            "SELECT emp.name, dept.dname FROM emp, dept WHERE emp.dept_id = dept.id"
        )
        assert len(result) == 4
        pairs = set(zip(result.column("name"), result.column("dname")))
        assert ("ann", "eng") in pairs
        assert ("carol", "sales") in pairs

    def test_explicit_join(self, db):
        result = db.execute(
            "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept_id = d.id"
        )
        assert len(result) == 4

    def test_join_null_keys_never_match(self, db):
        result = db.execute(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id"
        )
        assert "erin" not in result.column("name")

    def test_left_join_pads_nulls(self, db):
        result = db.execute(
            "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept_id = d.id"
        )
        assert len(result) == 5
        by_name = dict(zip(result.column("name"), result.column("dname")))
        assert by_name["erin"] is None

    def test_join_with_extra_predicate(self, db):
        result = db.execute(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id "
            "WHERE d.dname = 'eng'"
        )
        assert sorted(result.column("name")) == ["ann", "bob"]

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE loc (dept_id INTEGER, city TEXT)")
        db.execute("INSERT INTO loc VALUES (1, 'sfo'), (2, 'nyc')")
        result = db.execute(
            "SELECT e.name, l.city FROM emp e, dept d, loc l "
            "WHERE e.dept_id = d.id AND d.id = l.dept_id AND e.salary > 90"
        )
        pairs = set(zip(result.column("name"), result.column("city")))
        assert pairs == {("ann", "sfo"), ("carol", "nyc")}

    def test_non_equi_join(self, db):
        result = db.execute(
            "SELECT e1.name FROM emp e1, emp e2 "
            "WHERE e1.salary > e2.salary AND e2.name = 'carol'"
        )
        assert result.column("name") == []

    def test_cross_join_counts(self, db):
        result = db.execute("SELECT e.id FROM emp e, dept d")
        assert len(result) == 15


class TestAggregation:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 5

    def test_count_column_skips_nulls(self, db):
        assert db.execute("SELECT COUNT(salary) FROM emp").scalar() == 4

    def test_sum_avg_min_max(self, db):
        result = db.execute(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp"
        )
        total, average, low, high = result.rows[0]
        assert total == 390.0
        assert average == pytest.approx(97.5)
        assert low == 80.0
        assert high == 120.0

    def test_sum_of_empty_is_null(self, db):
        result = db.execute("SELECT SUM(salary) FROM emp WHERE id > 100")
        assert result.scalar() is None

    def test_count_of_empty_is_zero(self, db):
        result = db.execute("SELECT COUNT(*) FROM emp WHERE id > 100")
        assert result.scalar() == 0

    def test_group_by(self, db):
        result = db.execute(
            "SELECT dept_id, COUNT(*) AS n FROM emp "
            "WHERE dept_id IS NOT NULL GROUP BY dept_id ORDER BY dept_id"
        )
        assert result.rows == [(1, 2), (2, 2)]

    def test_group_by_with_sum_expression(self, db):
        result = db.execute(
            "SELECT dept_id, SUM(salary * 2) AS s FROM emp "
            "WHERE dept_id = 1 GROUP BY dept_id"
        )
        assert result.rows == [(1, 360.0)]

    def test_having(self, db):
        result = db.execute(
            "SELECT dept_id, AVG(salary) AS a FROM emp "
            "WHERE dept_id IS NOT NULL GROUP BY dept_id HAVING AVG(salary) > 100"
        )
        assert result.rows == [(2, 105.0)]

    def test_count_distinct(self, db):
        db.execute("INSERT INTO emp VALUES (6, 'fred', 1, 100.0, '2020-01-01')")
        assert db.execute("SELECT COUNT(DISTINCT salary) FROM emp").scalar() == 4

    def test_aggregate_of_join(self, db):
        result = db.execute(
            "SELECT d.dname, COUNT(*) AS n FROM emp e, dept d "
            "WHERE e.dept_id = d.id GROUP BY d.dname ORDER BY d.dname"
        )
        assert result.rows == [("eng", 2), ("sales", 2)]

    def test_having_without_group_rejected(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT name FROM emp HAVING name > 'a'")


class TestOrderLimitDistinct:
    def test_order_by_asc(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE salary IS NOT NULL ORDER BY salary"
        )
        assert result.column("name") == ["bob", "dave", "ann", "carol"]

    def test_order_by_desc(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE salary IS NOT NULL ORDER BY salary DESC"
        )
        assert result.column("name") == ["carol", "ann", "dave", "bob"]

    def test_order_by_multiple_keys(self, db):
        db.execute("INSERT INTO emp VALUES (6, 'aaa', 1, 100.0, '2020-01-01')")
        result = db.execute(
            "SELECT name FROM emp WHERE salary = 100 ORDER BY salary, name"
        )
        assert result.column("name") == ["aaa", "ann"]

    def test_nulls_sort_first(self, db):
        result = db.execute("SELECT name FROM emp ORDER BY salary")
        assert result.column("name")[0] == "erin"

    def test_limit(self, db):
        result = db.execute("SELECT name FROM emp ORDER BY name LIMIT 2")
        assert result.column("name") == ["ann", "bob"]

    def test_distinct(self, db):
        result = db.execute(
            "SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL"
        )
        assert sorted(result.column("dept_id")) == [1, 2]

    def test_order_by_alias(self, db):
        result = db.execute(
            "SELECT name, salary * 2 AS pay FROM emp "
            "WHERE salary IS NOT NULL ORDER BY pay DESC LIMIT 1"
        )
        assert result.column("name") == ["carol"]


class TestMutations:
    def test_insert_rowcount(self, db):
        result = db.execute("INSERT INTO dept VALUES (4, 'hr'), (5, 'it')")
        assert result.rowcount == 2

    def test_insert_with_column_list(self, db):
        db.execute("INSERT INTO emp (id, name) VALUES (10, 'zed')")
        row = db.execute("SELECT salary, name FROM emp WHERE id = 10").rows[0]
        assert row == (None, "zed")

    def test_update(self, db):
        result = db.execute("UPDATE emp SET salary = salary + 10 WHERE dept_id = 1")
        assert result.rowcount == 2
        assert db.execute("SELECT salary FROM emp WHERE id = 1").scalar() == 110.0

    def test_update_all_rows(self, db):
        result = db.execute("UPDATE dept SET dname = 'x'")
        assert result.rowcount == 3

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    @pytest.mark.parametrize(
        "sql, message",
        [
            ("UPDATE t SET b = b / (a - 3)", "division by zero"),  # row 3
            ("UPDATE t SET c = a * 1.5 + 0.5", "not an INTEGER: 3.5"),  # row 2
            ("UPDATE t SET a = 9 WHERE a >= 3", "duplicate key 9"),  # row 4
        ],
    )
    def test_a_failing_update_writes_nothing(self, mode, sql, message):
        db = Database(execution_mode=mode)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b FLOAT, c INTEGER)")
        db.execute("CREATE INDEX idx_c ON t (c)")
        db.execute("INSERT INTO t VALUES (1, 10.0, 1), (2, 20.0, 2), (3, 30.0, 3), (4, 40.0, 4)")
        table = db.table("t")

        def state():
            lookups = [table.index_on(c).lookup(key) for c in "ac" for key in range(12)]
            return (
                list(table.rows()), list(table.row_ids()), len(table),
                table.byte_size, table.version, lookups, table.column_data(),
            )

        before = state()
        with pytest.raises(SqlError, match=message):
            db.execute(sql)
        assert state() == before

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_update_keeps_row_ids_and_order_and_lets_rows_trade_keys(self, mode):
        db = Database(execution_mode=mode)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        table, pk = db.table("t"), db.table("t").index_on("a")
        version = table.version
        # Every new key is checked against the table minus the rewritten
        # rows, so a shift through keys still held when it starts passes.
        assert db.execute("UPDATE t SET a = a + 1, b = 'longer'").rowcount == 3
        assert list(table.rows()) == [(2, "longer"), (3, "longer"), (4, "longer")]
        assert list(table.row_ids()) == [0, 1, 2]
        assert [pk.lookup(key) for key in (1, 2, 3, 4)] == [[], [0], [1], [2]]
        assert table.byte_size == 3 * (8 + len("longer") + 4)
        assert db.execute("UPDATE t SET b = 'w' WHERE a > 9").rowcount == 0
        assert table.version == version + 1

    def test_delete(self, db):
        result = db.execute("DELETE FROM emp WHERE dept_id = 2")
        assert result.rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 3

    def test_delete_all(self, db):
        db.execute("DELETE FROM emp")
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 0

    def test_drop_table(self, db):
        db.execute("DROP TABLE dept")
        assert not db.has_table("dept")

    def test_drop_missing_table(self, db):
        with pytest.raises(SqlCatalogError):
            db.execute("DROP TABLE nope")
        db.execute("DROP TABLE IF EXISTS nope")  # must not raise


class TestResultApi:
    def test_scalar_requires_1x1(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT * FROM emp").scalar()

    def test_column_unknown_name(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT name FROM emp").column("zzz")

    def test_byte_size_positive(self, db):
        assert db.execute("SELECT * FROM emp").byte_size > 0

    def test_iteration(self, db):
        rows = list(db.execute("SELECT id FROM emp ORDER BY id"))
        assert rows == [(1,), (2,), (3,), (4,), (5,)]

    def test_table_stats(self, db):
        stats = db.table_stats("emp")
        assert stats.row_count == 5
        assert stats.columns["salary"].null_count == 1
        assert stats.columns["salary"].minimum == 80.0
        assert stats.columns["salary"].maximum == 120.0
        assert stats.columns["id"].distinct_count == 5
        assert stats.avg_row_bytes > 0

    def test_total_bytes(self, db):
        assert db.total_bytes > 0


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
    @pytest.fixture
    def db(self):
        """``emp`` without ``hired``: the tests below insert four values."""
        database = Database("test")
        database.execute(
            "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, "
            "dept_id INTEGER, salary FLOAT)"
        )
        database.execute(
            "INSERT INTO emp VALUES "
            "(1, 'ann', 1, 100.0), (2, 'bob', 1, 80.0), "
            "(3, 'carol', 2, 120.0), (4, 'dave', 2, 90.0), "
            "(5, 'erin', NULL, NULL)"
        )
        return database

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
