"""Owners answer a repeated subquery from the plan cache's remembered
result, and the simulated clock cannot tell.

Two identical systems run the same query twice.  Before the second run one
of them forgets every remembered result (assigning an execution mode does
that), so its owners execute again; the other's owners replay.  Rows,
simulated latency and bytes must agree to the bit, for every engine.
"""

import pytest

from repro.core import BestPeerNetwork
from repro.hadoopdb import HadoopDbCluster
from repro.sqlengine.vexecutor import VectorizedExecutor
from repro.tpch import Q1, Q3, Q5, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator

NUM_PEERS = 3
QUERIES = {"q1": Q1(), "q3": Q3(), "q5": Q5()}


@pytest.fixture
def runs(monkeypatch):
    counts = [0]
    original = VectorizedExecutor.execute

    def counting(self, plan):
        counts[0] += 1
        return original(self, plan)

    monkeypatch.setattr(VectorizedExecutor, "execute", counting)
    return counts


def build_network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=11, scale=0.4)
    for index in range(NUM_PEERS):
        net.add_peer(f"corp-{index}")
        net.load_peer(f"corp-{index}", generator.generate_peer(index))
    return net


def build_cluster():
    cluster = HadoopDbCluster(NUM_PEERS)
    cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
    generator = TpchGenerator(seed=11, scale=0.4)
    for index in range(NUM_PEERS):
        cluster.load_worker(index, generator.generate_peer(index))
    return cluster


def forget(databases):
    for database in databases:
        database.execution_mode = database.execution_mode


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("engine", ["basic", "parallel", "mapreduce", "adaptive"])
def test_a_replayed_owner_result_costs_the_same(runs, engine, name):
    sql = QUERIES[name]
    replaying, executing = build_network(), build_network()
    for net in (replaying, executing):
        net.execute(sql, engine=engine)
    before = runs[0]
    replayed = replaying.execute(sql, engine=engine)
    replay_runs = runs[0] - before
    forget(peer.database for peer in executing.peers.values())
    before = runs[0]
    executed = executing.execute(sql, engine=engine)
    assert runs[0] - before > replay_runs  # the owners did replay
    assert replayed.records and replayed.records == executed.records
    assert replayed.latency_s == executed.latency_s
    assert replayed.bytes_transferred == executed.bytes_transferred
    assert replayed.strategy == executed.strategy


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_hadoopdb_workers_replay_at_the_same_cost(runs, name):
    sql = QUERIES[name]
    replaying, executing = build_cluster(), build_cluster()
    for cluster in (replaying, executing):
        cluster.execute(sql)
    bytes_before = replaying.network.total.bytes, executing.network.total.bytes
    before = runs[0]
    replayed = replaying.execute(sql)
    replay_runs = runs[0] - before
    forget(executing.databases.values())
    before = runs[0]
    executed = executing.execute(sql)
    assert runs[0] - before > replay_runs
    assert replayed.records and replayed.records == executed.records
    assert replayed.duration_s == executed.duration_s
    assert (
        replaying.network.total.bytes - bytes_before[0]
        == executing.network.total.bytes - bytes_before[1]
    )
