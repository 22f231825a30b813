"""The vectorized executor: batching, stats parity, fallbacks, modes."""

import sys

import pytest

from repro.errors import SqlExecutionError
from repro.sqlengine import Database, EXECUTION_MODES, VectorizedExecutor, vexecutor
from repro.sqlengine.batch import LazyColumns
from repro.sqlengine.expr import RowLayout
from tests.helpers import result_surface


def build(mode="vectorized"):
    db = Database(execution_mode=mode)
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, val INTEGER)"
    )
    db.execute("CREATE INDEX idx_val ON t (val)")
    db.table("t").insert_many(
        [(i, ["x", "y", "z"][i % 3], (i * 7) % 50) for i in range(100)]
    )
    return db


def both(sql):
    """(interpreted result, vectorized result) over identical data."""
    return build("interpreted").execute(sql), build("vectorized").execute(sql)


class TestBatching:
    @pytest.mark.parametrize("batch_size", [1, 3, 100, 1024])
    def test_results_independent_of_batch_size(self, batch_size, monkeypatch):
        monkeypatch.setattr(VectorizedExecutor, "BATCH_SIZE", batch_size)
        reference, result = both(
            "SELECT grp, SUM(val) FROM t WHERE val > 10 GROUP BY grp "
            "ORDER BY grp"
        )
        assert result_surface(result) == result_surface(reference)


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

    def test_non_numeric_sum_over_a_join_matches_reference_error(self):
        # The fallback transposes the join's lazy column set into rows.
        sql = "SELECT SUM(a.grp) FROM t a, t b WHERE a.val = b.id"
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
        assert EXECUTION_MODES == ("interpreted", "vectorized")  # oracle, production
        assert Database().execution_mode == "vectorized"

    def test_unknown_mode_rejected(self):
        with pytest.raises(SqlExecutionError):
            Database(execution_mode="jit")
        db = Database()
        with pytest.raises(SqlExecutionError):
            db.execution_mode = "jit"

    def test_a_plan_is_cached_once_for_both_modes(self):
        db = build("vectorized")
        sql = "SELECT id FROM t WHERE val > 40"
        vectorized = db.execute(sql)
        db.execution_mode = "interpreted"
        interpreted = db.execute(sql)  # same SQL, same plan: a hit
        assert (db.plan_cache_misses, db.plan_cache_hits) == (1, 1)
        assert db.plan_cache_len == 1
        assert result_surface(interpreted) == result_surface(vectorized)

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


# ----------------------------------------------------------------------
# Late-materialised index scans
# ----------------------------------------------------------------------
WIDE_COLUMNS = ["k INTEGER", "a FLOAT", "b FLOAT", "d DATE"] + [
    f"pad{i} INTEGER" for i in range(12)
]
#: Q2's owner plan: one SUM over an arithmetic expression behind an index range.
WIDE_Q2 = "SELECT SUM(a * (1 - b)) FROM w WHERE k >= 50"


def build_wide(matching, mode="vectorized"):
    """A 16-column table with ``matching`` rows at ``k >= 50`` (and 50 below)."""
    db = Database(execution_mode=mode)
    db.execute(f"CREATE TABLE w ({', '.join(WIDE_COLUMNS)})")
    db.execute("CREATE INDEX idx_k ON w (k)")
    db.table("w").insert_many(
        [(i, float(i), 0.25, "1995-01-%02d" % (i % 28 + 1)) + (i,) * 12
         for i in range(matching + 50)]
    )
    return db


CHAIN_SQL = "SELECT x.x3, y.y0, z.z7 FROM x, y, z WHERE x.k = y.k AND y.j = z.j"


def build_chain(mode="vectorized"):
    """Three ten-column tables: ``k``, ``j`` and eight payload columns each."""
    db = Database(execution_mode=mode)
    for name in "xyz":
        payload = ", ".join(f"{name}{i} INTEGER" for i in range(8))
        db.execute(f"CREATE TABLE {name} (k INTEGER, j INTEGER, {payload})")
        db.table(name).insert_many([(i % 7, i % 5) + (i,) * 8 for i in range(40)])
    return db


STORAGE_FILES = ("sqlengine/table.py", "sqlengine/indexes.py")
OPERATOR_FILES = ("sqlengine/vexecutor.py", "sqlengine/batch.py")


def storage_calls(db, sql, files=STORAGE_FILES):
    """Python-level calls into ``files`` while ``sql`` runs.

    Counts frames entered there — by default table.py and indexes.py, i.e.
    ``Table`` / ``OrderedIndex`` — and a generator resumed per id counts per
    id; C-level passes over the ids are free, which is the point.
    """
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.endswith(files):
            calls += 1

    sys.setprofile(profiler)
    try:
        result = db.execute(sql)
    finally:
        sys.setprofile(None)
    return calls, result


class TestLateMaterialisation:
    @pytest.mark.parametrize(
        "sql, built",
        [
            (WIDE_Q2, {1, 2}),  # a, b: the conjunct on k is the index's own
            (WIDE_Q2 + " AND d > DATE '1995-01-14'", {1, 2, 3}),
            ("SELECT pad3 FROM w WHERE k = 60", {7}),
        ],
    )
    def test_only_referenced_columns_are_built(self, monkeypatch, sql, built):
        touched = set()
        build_column = LazyColumns.__getitem__

        def recording(self, position):
            touched.add(position)
            return build_column(self, position)

        monkeypatch.setattr(LazyColumns, "__getitem__", recording)
        result = build_wide(100).execute(sql)
        assert touched == built
        assert result.rows == build_wide(100).execute(sql).rows  # unpatched

    def test_a_join_chain_gathers_its_keys_and_what_is_projected(self, monkeypatch):
        made = []
        construct = LazyColumns.__init__

        def recording(self, parts):
            construct(self, parts)
            made.append(self)

        monkeypatch.setattr(LazyColumns, "__init__", recording)
        result = build_chain().execute(CHAIN_SQL)
        built = [
            {p for p, vector in enumerate(columns._vectors) if vector is not None}
            for columns in made
        ]
        # x ++ y hands on y.j (the next key); x ++ y ++ z the three projected.
        assert [positions for positions in built if positions] == [
            {10 + 1},
            {2 + 3, 10 + 2 + 0, 20 + 2 + 7},
        ]
        assert result_surface(result) == result_surface(
            build_chain("interpreted").execute(CHAIN_SQL)
        )

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_storage_calls_do_not_grow_with_matching_rows(self, mode):
        small_calls, small = storage_calls(build_wide(100, mode), WIDE_Q2)
        large_calls, large = storage_calls(build_wide(2000, mode), WIDE_Q2)
        assert (small.stats.rows_scanned, large.stats.rows_scanned) == (100, 2000)
        assert small_calls == large_calls
        assert small_calls < 20  # index_on, range_scan, rows_by_ids, not per row

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM w WHERE k >= 50",
            "SELECT k, a FROM w WHERE k >= 50 AND a < 120.0",
            "SELECT a FROM w WHERE k BETWEEN 60 AND 70 ORDER BY pad0 DESC",
        ],
    )
    def test_a_result_already_returned_survives_owner_writes(self, sql):
        db = build_wide(100)
        expected = result_surface(build_wide(100).execute(sql))
        result = db.execute(sql)  # nothing derived from it yet
        table = db.table("w")
        table.insert((55, -1.0, 0.5, "1995-02-02") + (0,) * 12)
        table.delete_row(60)
        table.update_rows([(61, (61, -2.0, 0.5, "1995-02-03") + (1,) * 12)])
        db.execute("DELETE FROM w WHERE k > 100")
        assert result_surface(result) == expected


# ----------------------------------------------------------------------
# Joins and GROUP BY at C level; kernels lowered once per cached plan
# ----------------------------------------------------------------------
def build_facts(rows, columns=("k", "k2", "grp", "val"), mode="vectorized"):
    """``f`` and ``d``: ``rows`` rows each, ``(k, k2)`` and ``k`` alone unique."""
    db = Database(execution_mode=mode)
    data = {"k": range(rows), "k2": [i % 3 for i in range(rows)],
            "grp": [i % 7 for i in range(rows)], "val": [i * 3 for i in range(rows)]}
    for name in ("f", "d"):
        db.execute(
            f"CREATE TABLE {name} ({', '.join(c + ' INTEGER' for c in columns)})"
        )
        db.table(name).insert_many(list(zip(*(data[c] for c in columns))))
    return db


JOIN_GROUP_SQL = (
    "SELECT f.grp, COUNT(*), SUM(d.val) FROM f, d WHERE f.k = d.k GROUP BY f.grp"
)


class TestOperatorCost:
    @pytest.mark.parametrize("on", ["f.k = d.k", "f.k = d.k AND f.k2 = d.k2"])
    def test_python_calls_do_not_grow_with_rows(self, on):
        sql = f"SELECT f.grp, COUNT(*), SUM(d.val) FROM f, d WHERE {on} GROUP BY f.grp"
        small_calls, small = storage_calls(build_facts(200), sql, OPERATOR_FILES)
        large_calls, large = storage_calls(build_facts(2000), sql, OPERATOR_FILES)
        assert (small.stats.join_probe_rows, large.stats.join_probe_rows) == (200, 2000)
        assert small_calls == large_calls
        assert large.rows == build_facts(2000, mode="interpreted").execute(sql).rows

    @pytest.mark.parametrize("prepared", [False, True])
    def test_a_cached_plan_lowers_nothing_the_second_time(self, monkeypatch, prepared):
        lowered = []

        def counting(target, name):
            original = getattr(target, name)

            def counted(*args, **kwargs):
                lowered.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(target, name, counted)

        counting(vexecutor, "compile_vector_filter")
        counting(vexecutor, "compile_vector_evaluator")
        counting(RowLayout, "__init__")
        db = build_facts(50)
        sql = (
            "SELECT f.grp, SUM(d.val * 2) AS s FROM f, d WHERE f.k = d.k "
            "AND d.val > 9 AND f.val + d.val > 30 GROUP BY f.grp ORDER BY s"
        )
        if prepared:
            plan = db.prepare(sql)
            run = lambda: db.execute_prepared(plan)  # noqa: E731
        else:
            run = lambda: db.execute(sql)  # noqa: E731
        first = run()
        assert {"compile_vector_filter", "compile_vector_evaluator", "__init__"} <= set(
            lowered
        )
        del lowered[:]
        assert run().rows == first.rows
        assert lowered == []

    def test_a_shipped_plan_is_lowered_again_for_another_column_order(self):
        sql = JOIN_GROUP_SQL + " ORDER BY f.grp"
        owner = build_facts(30)
        other = build_facts(30, columns=("val", "grp", "k2", "k"))
        expected = build_facts(
            30, columns=("val", "grp", "k2", "k"), mode="interpreted"
        ).execute(sql)
        plan = owner.prepare(sql)
        for db in (owner, other, owner, other):
            assert db.execute_prepared(plan).rows == expected.rows
