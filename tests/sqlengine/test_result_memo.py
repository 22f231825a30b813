"""A plan-cache entry remembers its plan's last result.

A SELECT repeated against an unchanged catalogue — the same plan object,
the same table objects at the same versions, the same execution mode —
replays the entry's batch and a fresh copy of its ExecStats instead of
running the kernels again.  Everything else executes.
"""

from dataclasses import asdict

import pytest

from repro.errors import SqlExecutionError
from repro.sqlengine import Database
from repro.sqlengine.executor import Executor
from repro.sqlengine.vexecutor import VectorizedExecutor

SQL = "SELECT id, val FROM t WHERE val > 20 ORDER BY id"


@pytest.fixture
def runs(monkeypatch):
    """How many plans each executor ran: ``runs["vectorized"]`` etc."""
    counts = {"interpreted": 0, "vectorized": 0}
    for mode, cls in (("interpreted", Executor), ("vectorized", VectorizedExecutor)):
        original = cls.execute

        def counting(self, plan, _original=original, _mode=mode):
            counts[_mode] += 1
            return _original(self, plan)

        monkeypatch.setattr(cls, "execute", counting)
    return counts


def build(name="db", rows=((1, 10), (2, 30), (3, 50))):
    db = Database(name)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, val INTEGER)")
    db.table("t").insert_many(list(rows))
    return db


class TestReplay:
    def test_a_repeat_replays_rows_and_stats(self, runs):
        db = build()
        first = db.execute(SQL)
        second = db.execute(SQL)
        assert runs["vectorized"] == 1
        assert second.rows == first.rows == [(2, 30), (3, 50)]
        assert second.batch is first.batch
        assert asdict(second.stats) == asdict(first.stats)
        assert (db.plan_cache_misses, db.plan_cache_hits) == (1, 1)

    def test_a_replay_hands_out_a_fresh_exec_stats(self, runs):
        db = build()
        first = db.execute(SQL)
        expected = asdict(first.stats)
        first.stats.rows_scanned += 1000
        second = db.execute(SQL)
        assert second.stats is not first.stats
        assert asdict(second.stats) == expected
        second.stats.rows_output = -1
        assert asdict(db.execute(SQL).stats) == expected
        assert runs["vectorized"] == 1

    def test_a_failing_statement_raises_every_time(self, runs):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, grp TEXT)")
        db.table("t").insert_many([(1, "x"), (2, "y")])
        for _ in range(2):
            with pytest.raises(SqlExecutionError):
                db.execute("SELECT SUM(grp) FROM t")
        assert runs["vectorized"] == 2
        assert (db.plan_cache_misses, db.plan_cache_hits) == (1, 1)


class TestInvalidation:
    def test_a_recreated_table_with_an_equal_version_misses(self, runs):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, val INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        assert db.execute("SELECT id, val FROM t").rows == [(1, 10)]
        version = db.table("t").version
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, val INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 99)")
        assert db.table("t").version == version
        assert db.execute("SELECT id, val FROM t").rows == [(1, 99)]
        assert runs["vectorized"] == 2

    WRITES = {
        "insert_many": lambda t: t.insert_many([(4, 70)]),
        "apply_delta": lambda t: t.apply_delta([(2, 30)], [(2, 31)]),
        "update_rows": lambda t: t.update_rows([(0, (1, 21))]),
        "delete_where": lambda t: t.delete_where(lambda row: row[0] == 3),
        "truncate": lambda t: t.truncate(),
        "create_index": lambda t: t.create_index("idx_val", "val"),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_every_write_door_misses(self, runs, write):
        db = build()
        db.execute(SQL)
        self.WRITES[write](db.table("t"))
        after = db.execute(SQL)
        assert runs["vectorized"] == 2
        assert after.rows == build_after(write).execute(SQL).rows

    def test_a_stale_entry_is_dropped_with_its_result(self):
        db = build()
        db.execute(SQL)
        db.table("t").insert_many([(4, 70)])
        db.execute("SELECT id FROM t")  # another text: SQL's entry untouched
        assert SQL in db._plan_cache
        db.execute(SQL)  # looked up, found stale, replaced
        assert db._plan_cache[SQL].result[1].count == 3


def build_after(write):
    db = build("fresh")
    TestInvalidation.WRITES[write](db.table("t"))
    return db


class TestShippedPlans:
    def test_a_shipped_plan_repeats_from_the_memo(self, runs):
        preparer, owner = build("a"), build("b", rows=((7, 80),))
        prepared = preparer.prepare(SQL)
        assert owner.execute_prepared(prepared).rows == [(7, 80)]
        assert owner.execute_prepared(prepared).rows == [(7, 80)]
        assert runs["vectorized"] == 1
        assert owner.plan_cache_hits == 2

    def test_shipped_and_local_plans_never_share_a_result(self, runs):
        preparer, owner = build("a"), build("b", rows=((7, 80),))
        prepared = preparer.prepare(SQL)
        local = owner.execute(SQL)
        shipped = owner.execute_prepared(prepared)
        again = owner.execute(SQL)
        assert runs["vectorized"] == 3
        assert local.rows == shipped.rows == again.rows == [(7, 80)]
        assert shipped.batch is not local.batch
        assert again.batch is not shipped.batch

    def test_a_fallback_counts_no_phantom_hit(self):
        preparer = build("a")
        preparer.execute("CREATE INDEX idx_val ON t (val)")
        prepared = preparer.prepare("SELECT id FROM t WHERE val = 30")
        bare = build("b")
        # The shipped plan probes idx_val, which this peer lacks: it falls
        # back to planning the text here, one miss and no hit.
        assert bare.execute_prepared(prepared).rows == [(2,)]
        assert (bare.plan_cache_hits, bare.plan_cache_misses) == (0, 1)
        assert bare.execute_prepared(prepared).rows == [(2,)]
        assert (bare.plan_cache_hits, bare.plan_cache_misses) == (1, 1)


class TestModes:
    def test_a_mode_switch_executes(self, runs):
        db = build()
        vectorized = db.execute(SQL)
        db.execution_mode = "interpreted"
        interpreted = db.execute(SQL)
        db.execution_mode = "vectorized"
        again = db.execute(SQL)
        assert runs == {"interpreted": 1, "vectorized": 2}
        assert vectorized.rows == interpreted.rows == again.rows

    @pytest.mark.parametrize("mode", ["interpreted", "vectorized"])
    def test_assigning_the_current_mode_forgets_results(self, runs, mode):
        db = build()
        db.execution_mode = mode
        db.execute(SQL)
        db.execution_mode = mode
        db.execute(SQL)
        assert runs[mode] == 2
        assert db.plan_cache_hits == 1  # the plan itself is still cached
