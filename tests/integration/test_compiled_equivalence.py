"""Fast execution modes must be observationally identical to interpreted.

The acceptance bar for expression compilation and vectorization (and the
reason the batch path is safe to enable by default): over the full TPC-H
benchmark suite, all three execution modes return byte-identical rows and
identical :class:`ExecStats` — and therefore, at the network level,
identical simulated bytes and latency.  A fast path may only change how
fast the reproduction runs, never a figure it produces.
"""

import pytest

from repro.core import BestPeerNetwork
from repro.sqlengine import Database, EXECUTION_MODES
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
from tests.property.test_vectorized_equivalence import result_surface

NUM_PEERS = 3
FAST_MODES = tuple(mode for mode in EXECUTION_MODES if mode != "interpreted")
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
    @pytest.mark.parametrize("mode", FAST_MODES)
    @pytest.mark.parametrize("name,sql", SUITE)
    def test_rows_and_stats_identical(self, mode, name, sql):
        interpreted = build_oracle("interpreted").execute(sql)
        fast = build_oracle(mode).execute(sql)
        assert result_surface(interpreted) == result_surface(fast)
        # Guard against a vacuous pass: the suite's selectivities are tuned
        # to return data.
        assert len(fast.rows) > 0


class TestDistributedSuite:
    @pytest.mark.parametrize("mode", FAST_MODES)
    @pytest.mark.parametrize("engine", ["basic", "parallel"])
    def test_records_and_simulated_costs_identical(self, mode, engine):
        interpreted_net = build_network("interpreted")
        fast_net = build_network(mode)
        for name, sql in SUITE:
            interpreted = interpreted_net.execute(sql, engine=engine)
            fast = fast_net.execute(sql, engine=engine)
            assert interpreted.records == fast.records, name
            # ExecStats invariance propagates: every simulated figure the
            # paper reproduction reports is mode-independent.
            assert interpreted.bytes_transferred == fast.bytes_transferred
            assert interpreted.latency_s == fast.latency_s
            assert interpreted.strategy == fast.strategy

    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_repeated_queries_hit_the_plan_cache(self, mode):
        net = build_network(mode)
        sql = Q3()
        first = net.execute(sql, engine="basic")
        second = net.execute(sql, engine="basic")
        assert first.records == second.records
        # The broadcast subquery is prepared once per owner set and the
        # repeated statement reuses cached plans: hits must be visible in
        # the synced network metrics.
        assert net.metrics.plan_cache_hits > 0
        assert net.metrics.plan_cache_misses > 0
