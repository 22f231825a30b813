"""A repeated MapReduce or HadoopDB query replays its job chain when every
table split hands back the batch object the last run fetched, and neither
the simulated clock nor the network can tell.

Two identical systems run the same query twice.  Before the second run one
of them gets a fresh planner, so its compiled plan keeps no chain to replay
and every job maps, routes and reduces again; the other's jobs replay.
Rows in order, columns, simulated latency, bytes, each job's phase timings
and bytes shuffled, and the ``(src, dst, nbytes)`` sequence of every
simulated transfer (HDFS reads and writes included) must agree to the bit.
A refreshed owner table, a peer added to the host set and another engine
class each make the jobs run again; a mistyped value raises on every run
and leaves nothing kept.
"""

import pytest

from repro.core import BestPeerNetwork
from repro.errors import SqlError, SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.mapreduce import MapReduceEngine
from repro.plan.driver import LocalResult
from repro.plan.sms import SmsPlanner
from repro.sim.network import SimNetwork
from repro.sqlengine import Column, ColumnType, TableSchema
from repro.sqlengine.batch import ColumnBatch
from repro.tpch import Q3, Q4, Q5, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator
from tests.plan.test_split_level_jobs import PerPairEngine

NUM_PEERS = 3
QUERIES = {"q3": Q3(), "q4": Q4(), "q5": Q5()}


@pytest.fixture
def observe(monkeypatch):
    """Run one query on a network (BestPeer++'s MapReduce engine) or a
    HadoopDB cluster; returns ``(what the caller sees, each job's
    accounting, the transfers made, how many jobs replayed)``."""
    jobs = []
    transfers = []
    run_job = MapReduceEngine.run_job
    transfer = SimNetwork.transfer

    def recording_job(self, job, inputs=None, replay=None):
        result = run_job(self, job, inputs, replay)
        jobs.append((result, replay is not None))
        return result

    def recording_transfer(self, src, dst, nbytes, *args, **kwargs):
        transfers.append((src, dst, nbytes))
        return transfer(self, src, dst, nbytes, *args, **kwargs)

    monkeypatch.setattr(MapReduceEngine, "run_job", recording_job)
    monkeypatch.setattr(SimNetwork, "transfer", recording_transfer)

    def run(system, sql):
        jobs.clear()
        transfers.clear()
        if isinstance(system, HadoopDbCluster):
            result = system.execute(sql)
            seen = (result.columns, result.records, result.duration_s, result.num_jobs)
        else:
            result = system.execute(sql, engine="mapreduce")
            seen = (
                result.columns,
                result.records,
                result.latency_s,
                result.bytes_transferred,
            )
        accounting = [
            (job.timings, job.bytes_shuffled, job.map_tasks, job.reduce_tasks)
            for job, _ in jobs
        ]
        return seen, accounting, list(transfers), sum(hit for _, hit in jobs)

    return run


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


BUILDERS = {"bestpeer": build_network, "hadoopdb": build_cluster}


def forget(system):
    """A fresh planner: no compiled plan, so no chain to replay."""
    if isinstance(system, HadoopDbCluster):
        system._planner = SmsPlanner(system._schemas)
    else:
        system.planner = SmsPlanner(system.global_schemas)


def kept(system, sql):
    planner = system._planner if isinstance(system, HadoopDbCluster) else system.planner
    return planner.compile_text(sql)[1].last_chain


def assert_same(replayed, processed):
    """Everything the caller, the clock and the network see, bit for bit."""
    assert replayed[0] == processed[0]
    assert replayed[1] == processed[1]
    assert replayed[2] == processed[2] and replayed[2]


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("system", sorted(BUILDERS))
def test_a_replayed_chain_costs_the_same(observe, system, name):
    sql = QUERIES[name]
    replaying, fresh = BUILDERS[system](), BUILDERS[system]()
    first = observe(replaying, sql)
    observe(fresh, sql)
    assert first[0][1] and first[3] == 0
    forget(fresh)
    replayed = observe(replaying, sql)
    processed = observe(fresh, sql)
    assert processed[3] == 0
    assert replayed[3] == len(replayed[1]) > 0  # every job replayed
    assert_same(replayed, processed)
    # The caller gets its own list: changing it changes no later replay.
    replayed[0][1].clear()
    assert observe(replaying, sql)[0] == processed[0]


def test_a_refreshed_owner_table_runs_again(observe):
    sql = Q5()
    replaying, fresh = build_network(), build_network()
    for net in (replaying, fresh):
        observe(net, sql)
        orders = list(net.peers["corp-0"].database.table("orders").rows())
        net.refresh_peer("corp-0", "orders", orders[1:])
    forget(fresh)
    replayed, processed = observe(replaying, sql), observe(fresh, sql)
    # Q5's first job reads customer and orders: from the refreshed table
    # on, every job maps, routes and reduces again.
    assert replayed[3] == processed[3] == 0
    assert_same(replayed, processed)


def test_a_new_batch_for_a_later_job_replays_the_jobs_before_it(observe):
    """A worker hands back its supplier rows as another batch object (an
    owner's memo forgets per database, so a copy stands in for a change
    that touches only the table a later job reads)."""
    sql = Q5()
    replaying, fresh = build_cluster(), build_cluster()
    for cluster in (replaying, fresh):
        observe(cluster, sql)
    forget(fresh)
    local_execute = replaying._driver.local_execute

    def copying(host, fragment):
        local = local_execute(host, fragment)
        if "supplier" not in fragment:
            return local
        batch = local.batch
        copy = ColumnBatch(batch.columns, batch.vectors, len(batch))
        return LocalResult(copy, local.seconds)

    replaying._driver.local_execute = copying
    replayed, processed = observe(replaying, sql), observe(fresh, sql)
    # Q5 joins customer, orders, lineitem, then supplier: the first two
    # jobs replay, the supplier join and the aggregate run again.
    assert (replayed[3], processed[3]) == (2, 0)
    assert_same(replayed, processed)
    # The run is kept anew: back to the worker's own supplier batch, the
    # same two jobs replay, and then every job does.
    replaying._driver.local_execute = local_execute
    assert observe(replaying, sql)[3] == 2
    assert observe(replaying, sql)[3] == len(replayed[1])


def test_a_failure_during_a_replay_keeps_nothing(observe):
    """A worker that fails mid-chain (here on the lineitem fragment, read
    by Q5's second job, after the first job replayed) drops what was kept;
    the next run maps, routes and reduces every job again."""
    sql = Q5()
    cluster = build_cluster()
    first = observe(cluster, sql)
    local_execute = cluster._driver.local_execute

    def failing(host, fragment):
        if "lineitem" in fragment:
            raise SqlExecutionError("worker lost")
        return local_execute(host, fragment)

    cluster._driver.local_execute = failing
    with pytest.raises(SqlExecutionError, match="worker lost"):
        observe(cluster, sql)
    assert kept(cluster, sql) is None
    cluster._driver.local_execute = local_execute
    again = observe(cluster, sql)
    assert again[3] == 0
    assert again[0][:2] == first[0][:2]


def test_a_peer_added_to_the_host_set_runs_again(observe):
    sql = Q4()
    replaying, fresh = build_network(), build_network()
    generator = TpchGenerator(seed=11, scale=0.4)
    for net in (replaying, fresh):
        observe(net, sql)
        net.add_peer(f"corp-{NUM_PEERS}")
        net.load_peer(f"corp-{NUM_PEERS}", generator.generate_peer(NUM_PEERS))
    forget(fresh)
    replayed, processed = observe(replaying, sql), observe(fresh, sql)
    assert replayed[3] == processed[3] == 0
    assert_same(replayed, processed)


def test_another_engine_class_does_not_replay(observe):
    """The per-pair oracle engine after a normal run on the same plan runs
    every job itself, and answers as the normal run did (the durations
    differ: HDFS placed this run's replicas elsewhere)."""
    sql = Q4()
    cluster = build_cluster()
    normal = observe(cluster, sql)
    cluster.engine = cluster._driver.engine = PerPairEngine(
        cluster.workers, cluster.network, cluster.hdfs, cluster.engine.config
    )
    per_pair = observe(cluster, sql)
    assert per_pair[3] == 0
    assert per_pair[0][:2] == normal[0][:2]
    # A replay of the per-pair run is of its own class's run.
    assert kept(cluster, sql).key[0] is PerPairEngine
    assert observe(cluster, sql)[3] == len(per_pair[1])


def mistyped_network():
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
        net.load_peer(f"p{index}", {"a": [(index, index)], "b": [(index, 10 * index)]})
    # p1's own table holds text where the global schema says INTEGER.
    database = net.peers["p1"].database
    database.drop_table("b")
    database.create_table(
        TableSchema("b", [Column("id", ColumnType.INTEGER), Column("w", ColumnType.TEXT)])
    ).insert_many([(1, "ten")])
    return net


def test_a_mistyped_value_raises_on_every_run(observe):
    net = mistyped_network()
    sql = "SELECT a.id, b.w FROM a, b WHERE a.id = b.id AND a.v + b.w > 0"
    errors = []
    for _ in range(2):
        with pytest.raises(SqlError) as raised:
            observe(net, sql)
        errors.append(str(raised.value))
        assert kept(net, sql) is None
    assert errors[0] == errors[1]
