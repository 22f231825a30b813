"""The query peer answers a repeated fetch-and-process query once per set of
fetched batches, and the simulated clock cannot tell.

Two identical systems run the same query twice.  Before the second run one
of them gets a fresh planner, so its compiled plan holds no processing to
replay and the query peer runs its final plan again; the other's query peer
replays.  Rows in order, columns, simulated latency, bytes, MemTable spills
and the final plan's ``ExecStats`` must agree to the bit.  A refreshed
owner table, a restricted user and a changed MemTable capacity each make
the query peer process again; a mistyped value raises on every run.
"""

import dataclasses

import pytest

from repro.core import BestPeerNetwork, engine_basic
from repro.core.access_control import READ, rule
from repro.errors import SqlError
from repro.plan.sms import SmsPlanner
from repro.sqlengine import Column, ColumnType, TableSchema
from repro.sqlengine.vexecutor import VectorizedExecutor
from repro.tpch import Q3, Q4, Q5, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator

NUM_PEERS = 3
QUERIES = {
    "q3": Q3(),
    "q4": Q4(),
    "q5": Q5(),
    "self_join": (
        "SELECT n1.n_name AS first, n2.n_name AS second FROM nation n1, nation n2 "
        "WHERE n1.n_regionkey = n2.n_regionkey AND n1.n_nationkey < n2.n_nationkey "
        "ORDER BY first, second"
    ),
    "having": (
        "SELECT c_nationkey, COUNT(*) AS n FROM customer, orders "
        "WHERE c_custkey = o_custkey GROUP BY c_nationkey HAVING COUNT(*) > 10 "
        "ORDER BY n DESC, c_nationkey LIMIT 5"
    ),
}
# The SMS planner compiles inner joins only: a LEFT JOIN is refused before
# anything is fetched, on every run.
LEFT_JOIN = (
    "SELECT c_custkey, o_orderkey FROM customer LEFT JOIN orders "
    "ON c_custkey = o_custkey"
)
# Q3's bloom join keeps only some of the lineitem rows an owner remembers,
# so each run ships a new batch and the query peer processes it again.
REPLAYS = {"q3": False, "q4": True, "q5": True, "self_join": True, "having": True}


@pytest.fixture
def observe(monkeypatch):
    """Run one query; returns ``(execution, final ExecStats, spills, rows
    staged, how often the query peer ran its final plan)``."""
    processed = []
    planned = []
    process = engine_basic._process_fetched

    def recording(*args):
        result = process(*args)
        processed.append(result)
        return result

    class Counting(VectorizedExecutor):
        def execute(self, plan):
            planned.append(plan)
            return super().execute(plan)

    monkeypatch.setattr(engine_basic, "_process_fetched", recording)
    monkeypatch.setattr(engine_basic, "VectorizedExecutor", Counting)

    def run(net, sql, **kwargs):
        planned.clear()
        execution = net.execute(sql, engine="basic", **kwargs)
        assert execution.strategy == "fetch-and-process"
        final, spills, staged = processed.pop()
        return execution, final.stats, spills, staged, len(planned)

    return run


def build_network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=11, scale=0.4)
    for index in range(NUM_PEERS):
        net.add_peer(f"corp-{index}")
        net.load_peer(f"corp-{index}", generator.generate_peer(index))
    return net


def forget(net):
    net.planner = SmsPlanner(net.global_schemas)


def assert_same(replayed, processed):
    """Everything the caller and the simulated clock can see, bit for bit."""
    execution, stats, spills, staged, _ = replayed
    other, other_stats, other_spills, other_staged, _ = processed
    assert execution.columns == other.columns
    assert execution.records == other.records
    assert execution.latency_s == other.latency_s
    assert execution.bytes_transferred == other.bytes_transferred
    assert execution.memtable_spills == other.memtable_spills == spills == other_spills
    assert stats == other_stats
    assert staged == other_staged


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_a_replayed_processing_costs_the_same(observe, name):
    sql = QUERIES[name]
    replaying, fresh = build_network(), build_network()
    first = observe(replaying, sql)
    observe(fresh, sql)
    assert first[0].records and first[4] == 1
    forget(fresh)
    replayed = observe(replaying, sql)
    processed = observe(fresh, sql)
    assert processed[4] == 1
    assert replayed[4] == (0 if REPLAYS[name] else 1)
    assert_same(replayed, processed)
    assert replayed[0].records == first[0].records
    # Each run gets its own ExecStats: a caller that merges into one does
    # not change the next replay.
    replayed[1].merge(replayed[1])
    assert observe(replaying, sql)[1] == processed[1]


def test_a_left_join_is_refused_on_every_run():
    net = build_network()
    for _ in range(2):
        with pytest.raises(SqlError, match="inner joins only"):
            net.execute(LEFT_JOIN, engine="basic")


def test_a_refreshed_owner_table_is_processed_again(observe):
    sql = Q5()
    replaying, fresh = build_network(), build_network()
    for net in (replaying, fresh):
        observe(net, sql)
        orders = list(net.peers["corp-0"].database.table("orders").rows())
        net.refresh_peer("corp-0", "orders", orders[1:])
    forget(fresh)
    replayed, processed = observe(replaying, sql), observe(fresh, sql)
    assert replayed[4] == processed[4] == 1
    assert_same(replayed, processed)


def test_a_restricted_user_is_processed_again(observe):
    sql = Q5()
    replaying, fresh = build_network(), build_network()
    for net in (replaying, fresh):
        role = net.create_full_access_role().plus(
            rule("lineitem.l_discount", [READ], (0.0, 0.05)), name="cheap"
        )
        net.create_user("auditor", "corp-0", role)
        assert observe(net, sql, user="auditor")[0].records
    forget(fresh)
    replayed = observe(replaying, sql, user="auditor")
    processed = observe(fresh, sql, user="auditor")
    assert replayed[4] == processed[4] == 1
    assert_same(replayed, processed)


def test_a_changed_memtable_capacity_is_processed_again(observe):
    sql = Q5()
    replaying, fresh = build_network(), build_network()
    for net in (replaying, fresh):
        roomy = observe(net, sql)
        net.config = dataclasses.replace(net.config, memtable_capacity_bytes=4096)
    forget(fresh)
    replayed, processed = observe(replaying, sql), observe(fresh, sql)
    assert replayed[4] == processed[4] == 1
    assert replayed[2] > roomy[2]
    assert_same(replayed, processed)


def test_a_mistyped_value_raises_on_every_run(observe):
    schemas = {
        "a": TableSchema(
            "a", [Column("id", ColumnType.INTEGER), Column("v", ColumnType.INTEGER)]
        ),
        "b": TableSchema(
            "b", [Column("id", ColumnType.INTEGER), Column("w", ColumnType.INTEGER)]
        ),
    }
    net = BestPeerNetwork(schemas)
    for index in range(2):
        net.add_peer(f"p{index}")
        net.load_peer(
            f"p{index}", {"a": [(index, index)], "b": [(index, 10 * index)]}
        )
    # p1's own table holds text where the global schema says INTEGER.
    database = net.peers["p1"].database
    database.drop_table("b")
    database.create_table(
        TableSchema("b", [Column("id", ColumnType.INTEGER), Column("w", ColumnType.TEXT)])
    ).insert_many([(1, "ten")])
    sql = "SELECT a.id, b.w FROM a, b WHERE a.id = b.id"
    errors = []
    for _ in range(2):
        with pytest.raises(SqlError) as raised:
            observe(net, sql)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    assert net.planner.compile_text(sql)[1].last_processed is None
