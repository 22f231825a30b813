"""The vectorized production path must be observationally identical to the
interpreted oracle.

The acceptance bar for vectorization (and the reason the batch path is the
default): over the full TPC-H benchmark suite, both execution modes return
byte-identical rows and identical :class:`ExecStats` — and therefore, at
the network level, identical simulated bytes and latency.  The fast path
may only change how fast the reproduction runs, never a figure it produces.
"""

import pytest

from repro.core import BestPeerNetwork
from repro.sqlengine import Database
from repro.tpch import (
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    TpchGenerator,
    create_tpch_tables,
)
from tests.helpers import result_surface

NUM_PEERS = 3
SUITE = (
    ("q1", Q1()),
    ("q2", Q2()),
    ("q3", Q3()),
    ("q4", Q4()),
    ("q5", Q5()),
)


def build_oracle(execution_mode: str) -> Database:
    """One local database holding the union of every peer's partition."""
    db = Database("oracle", execution_mode=execution_mode)
    create_tpch_tables(db)
    generator = TpchGenerator(seed=11, scale=0.4)
    for index in range(NUM_PEERS):
        for table, rows in generator.generate_peer(index).items():
            if table in ("nation", "region") and index > 0:
                continue  # replicated dimension tables
            db.table(table).insert_many(rows)
    return db


def build_network(execution_mode: str) -> BestPeerNetwork:
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=11, scale=0.4)
    for index in range(NUM_PEERS):
        peer_id = f"corp-{index}"
        net.add_peer(peer_id)
        net.load_peer(peer_id, generator.generate_peer(index))
        net.peers[peer_id].database.execution_mode = execution_mode
    return net


class TestLocalSuite:
    @pytest.mark.parametrize("name,sql", SUITE)
    def test_rows_and_stats_identical(self, name, sql):
        interpreted = build_oracle("interpreted").execute(sql)
        fast = build_oracle("vectorized").execute(sql)
        assert result_surface(interpreted) == result_surface(fast)
        # Guard against a vacuous pass: the suite's selectivities are tuned
        # to return data.
        assert len(fast.rows) > 0


class TestDistributedSuite:
    @pytest.mark.parametrize("engine", ["basic", "parallel"])
    def test_records_and_simulated_costs_identical(self, engine):
        interpreted_net = build_network("interpreted")
        fast_net = build_network("vectorized")
        for name, sql in SUITE:
            interpreted = interpreted_net.execute(sql, engine=engine)
            fast = fast_net.execute(sql, engine=engine)
            assert interpreted.records == fast.records, name
            # ExecStats invariance propagates: every simulated figure the
            # paper reproduction reports is mode-independent.
            assert interpreted.bytes_transferred == fast.bytes_transferred
            assert interpreted.latency_s == fast.latency_s
            assert interpreted.strategy == fast.strategy

    def test_repeated_queries_hit_the_plan_cache(self):
        net = build_network("vectorized")
        sql = Q3()
        first = net.execute(sql, engine="basic")
        second = net.execute(sql, engine="basic")
        assert first.records == second.records
        # The broadcast subquery is prepared once per owner set and the
        # repeated statement reuses cached plans: hits must be visible in
        # the peers' own plan-cache counters.
        databases = [peer.database for peer in net.peers.values()]
        assert sum(db.plan_cache_hits for db in databases) > 0
        assert sum(db.plan_cache_misses for db in databases) > 0
