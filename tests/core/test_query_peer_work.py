"""The basic engine's query peer does no work its answer never reads.

Its bloom filter is sized (and priced) for the base side's join keys as
soon as they are fetched; its bits are set the first time an owner ships a
key that is not one of them.  Q4's and Q5's joined sides ship only base
keys on the ``join_fetch`` data (TPC-H at scale 2, data seed 42, five
peers), so they hash nothing; Q3's ship others, so Q3 hashes as before and
ships the same rows at the same price.

Its final join probes one key column: Q5's last join, on ``l_suppkey =
s_suppkey AND c_nationkey = s_nationkey``, probes the distinct
``s_suppkey`` and compares ``c_nationkey`` at the candidate pairs, with no
key tuple built.  A repeat over the same fetched batches probes nothing.
"""

import hashlib

import pytest

from repro.core import BloomFilter, engine_basic
from repro.plan.sms import SmsPlanner
from repro.sqlengine import vexecutor
from repro.tpch import Q3, Q4, Q5
from tests.core.test_fetched_rows import Q3_POOL, Q4_POOL, network  # noqa: F401


@pytest.fixture
def observed(monkeypatch):
    """Run one query; returns ``(keys hashed, execution, digest of the
    rows the query peer received)``."""
    hashed = []
    digests = []
    positions = BloomFilter._positions
    process = engine_basic._process_fetched

    def counting(self, value):
        hashed.append(value)
        return positions(self, value)

    def digesting(planner, plan, fetched, capacity):
        text = repr([
            (binding, [batch.rows for batch in batches])
            for binding, batches in sorted(fetched.items())
        ])
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        return process(planner, plan, fetched, capacity)

    monkeypatch.setattr(BloomFilter, "_positions", counting)
    monkeypatch.setattr(engine_basic, "_process_fetched", digesting)

    def run(net, sql):
        hashed.clear()
        execution = net.execute(sql, engine="basic")
        assert execution.strategy == "fetch-and-process"
        return len(hashed), execution, digests.pop()

    return run


def test_q4_and_q5_hash_no_key(network, observed):
    for sql in [Q4(size) for size in Q4_POOL] + [Q5()]:
        hashed, execution, _ = observed(network, sql)
        assert execution.bloom_joins == 1
        assert hashed == 0


def test_q3_hashes_and_ships_what_an_eager_filter_did(network, observed):
    shipped = [
        (hashed, execution.bytes_transferred, execution.bloom_joins, digest)
        for hashed, execution, digest in (
            observed(network, Q3(*dates)) for dates in Q3_POOL
        )
    ]
    # Measured with the filter filled as soon as the base keys arrived.
    assert shipped == [
        (306, 9117, 1, "9ddbe951e94fc98b"),
        (328, 11330, 1, "518f3ecae7381ba3"),
        (348, 13209, 1, "23d525af325fd4ff"),
        (368, 14605, 1, "d197df8fe9c78c6a"),
        (387, 16423, 1, "2e7d000966f3ff22"),
        (411, 17300, 1, "132bff9d85837189"),
        (431, 19703, 1, "6c86789404ca28b1"),
        (449, 21262, 1, "68035eca8f5d5afd"),
    ]


def test_q5_probes_one_key_column_and_builds_no_key_tuple(network, monkeypatch):
    probes, compares, tuple_keys = [], [], []
    probe_pairs = vexecutor._probe_pairs
    matching_parts = vexecutor._matching_parts

    def probing(probe_keys, ln, index, distinct):
        probes.append((len(probe_keys), len(index), distinct))
        tuple_keys.extend(
            key for key in [*probe_keys, *index] if isinstance(key, tuple)
        )
        return probe_pairs(probe_keys, ln, index, distinct)

    def comparing(left_idx, right_idx, left_parts, right_parts):
        pairs = matching_parts(left_idx, right_idx, left_parts, right_parts)
        compares.append((len(left_parts), len(left_idx), len(pairs[0])))
        return pairs

    monkeypatch.setattr(vexecutor, "_probe_pairs", probing)
    monkeypatch.setattr(vexecutor, "_matching_parts", comparing)
    # A fresh compile: the module's network may have processed Q5 already,
    # and a repeat over the same fetched batches replays, probing nothing.
    monkeypatch.setattr(network, "planner", SmsPlanner(network.global_schemas))
    network.execute(Q5(), engine="basic")
    assert tuple_keys == []
    # (probe rows, build keys, distinct), then (parts compared, candidate
    # pairs, pairs kept): customer against orders' o_custkey buckets, then
    # lineitem's l_orderkey buckets, then the distinct s_suppkey with
    # c_nationkey compared.
    assert probes == [(300, 300, False), (3000, 3000, False), (11966, 100, True)]
    assert compares == [(0, 3000, 3000), (0, 11966, 11966), (1, 11966, 483)]
    probes.clear()
    compares.clear()
    network.execute(Q5(), engine="basic")
    assert probes == compares == []
