"""The vectorized executor: batching, stats parity, fallbacks, modes."""

import pytest

from repro.errors import SqlExecutionError
from repro.sqlengine import Database, EXECUTION_MODES, VectorizedExecutor
from tests.property.test_vectorized_equivalence import result_surface


def build(mode="vectorized", **kwargs):
    db = Database(execution_mode=mode, **kwargs)
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, val INTEGER)"
    )
    db.execute("CREATE INDEX idx_val ON t (val)")
    db.table("t").insert_many(
        [(i, ["x", "y", "z"][i % 3], (i * 7) % 50) for i in range(100)]
    )
    return db


def both(sql, **kwargs):
    """(interpreted result, vectorized result) over identical data."""
    return build("interpreted", **kwargs).execute(sql), build(
        "vectorized", **kwargs
    ).execute(sql)


class TestBatching:
    @pytest.mark.parametrize("batch_size", [1, 3, 100, 1024])
    def test_results_independent_of_batch_size(self, batch_size):
        reference = build("interpreted").execute(
            "SELECT grp, SUM(val) FROM t WHERE val > 10 GROUP BY grp "
            "ORDER BY grp"
        )
        result = build("vectorized", batch_size=batch_size).execute(
            "SELECT grp, SUM(val) FROM t WHERE val > 10 GROUP BY grp "
            "ORDER BY grp"
        )
        assert result_surface(result) == result_surface(reference)

    def test_batch_size_must_be_positive(self):
        with pytest.raises(SqlExecutionError):
            VectorizedExecutor({}, batch_size=0)


class TestStatsParity:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE val = 14",  # index equality probe
            "SELECT id FROM t WHERE val > 40",  # index range scan
            "SELECT a.id, b.id FROM t a, t b WHERE a.val = b.id",  # hash join
            "SELECT a.id FROM t a, t b WHERE a.val < b.id AND b.id < 3",
            "SELECT a.id, b.id FROM t a LEFT JOIN t b ON a.id = b.val",
        ],
    )
    def test_counters_identical_to_reference(self, sql):
        reference, result = both(sql)
        assert result_surface(result) == result_surface(reference)
        assert (
            result.stats.index_probes
            + result.stats.join_probe_rows
            + result.stats.rows_scanned
        ) > 0


class TestGroupByFallback:
    def test_non_numeric_sum_matches_reference_error(self):
        sql = "SELECT SUM(grp) FROM t"
        with pytest.raises(SqlExecutionError) as reference:
            build("interpreted").execute(sql)
        with pytest.raises(SqlExecutionError) as vectorized:
            build("vectorized").execute(sql)
        assert str(vectorized.value) == str(reference.value)

    def test_mixed_type_min_matches_reference_error(self):
        db = build("vectorized")
        db.execute("CREATE TABLE m (k INTEGER, v TEXT)")
        db.table("m").insert_many([(1, "a"), (1, None)])
        # MIN over TEXT works; the fallback must not fire spuriously.
        assert db.execute("SELECT MIN(v) FROM m").rows == [("a",)]


class TestExecutionModes:
    def test_default_mode_is_vectorized(self):
        assert Database().execution_mode == "vectorized"

    def test_unknown_mode_rejected(self):
        with pytest.raises(SqlExecutionError):
            Database(execution_mode="jit")
        db = Database()
        with pytest.raises(SqlExecutionError):
            db.execution_mode = "jit"

    def test_mode_and_use_compiled_are_exclusive(self):
        with pytest.raises(SqlExecutionError):
            Database(use_compiled=True, execution_mode="vectorized")

    def test_use_compiled_compatibility_mapping(self):
        assert Database(use_compiled=True).execution_mode == "compiled"
        assert Database(use_compiled=False).execution_mode == "interpreted"
        db = Database()
        db.use_compiled = False
        assert db.execution_mode == "interpreted"
        assert not db.use_compiled
        db.use_compiled = True
        assert db.execution_mode == "compiled"
        assert db.use_compiled

    def test_plan_cache_keys_include_the_mode(self):
        db = build("vectorized")
        sql = "SELECT id FROM t WHERE val > 40"
        db.execute(sql)
        db.execute(sql)
        assert db.plan_cache_hits == 1
        db.execution_mode = "compiled"
        db.execute(sql)  # same SQL, different mode: a fresh miss
        assert db.plan_cache_misses >= 2
        db.execute(sql)
        assert db.plan_cache_hits == 2

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_every_mode_runs_dml_and_queries(self, mode):
        db = build(mode)
        db.execute("UPDATE t SET val = val + 1 WHERE id < 10")
        db.execute("DELETE FROM t WHERE id = 99")
        result = db.execute("SELECT COUNT(*), SUM(val) FROM t")
        assert result.rows[0][0] == 99


class TestOperatorEdges:
    def test_empty_table_through_all_operators(self):
        db = Database(execution_mode="vectorized")
        db.execute("CREATE TABLE e (a INTEGER, b TEXT)")
        assert db.execute(
            "SELECT b, COUNT(*) FROM e WHERE a > 0 GROUP BY b "
            "ORDER BY b LIMIT 5"
        ).rows == []
        assert db.execute("SELECT COUNT(*), SUM(a) FROM e").rows == [(0, None)]

    def test_left_join_pads_unmatched_rows_with_nulls(self):
        db = Database(execution_mode="vectorized")
        db.execute("CREATE TABLE l (a INTEGER)")
        db.execute("CREATE TABLE r (a INTEGER, b TEXT)")
        db.table("l").insert_many([(1,), (2,)])
        db.table("r").insert_many([(1, "one")])
        assert db.execute(
            "SELECT l.a, r.b FROM l LEFT JOIN r ON l.a = r.a ORDER BY l.a"
        ).rows == [(1, "one"), (2, None)]

    def test_distinct_then_limit(self):
        _, result = both("SELECT DISTINCT grp FROM t ORDER BY grp LIMIT 2")
        assert result.rows == [("x",), ("y",)]

    def test_project_error_beats_later_item_error(self):
        # Row-major error order: for the first bad row, the leftmost
        # erroring item wins, exactly as the reference raises.
        db = build("vectorized")
        with pytest.raises(SqlExecutionError) as vectorized:
            db.execute("SELECT val + grp, 1 / 0 FROM t")
        with pytest.raises(SqlExecutionError) as reference:
            build("interpreted").execute("SELECT val + grp, 1 / 0 FROM t")
        assert str(vectorized.value) == str(reference.value)
