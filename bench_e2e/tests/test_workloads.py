"""Seeded inputs: the same seed gives the same ops; refresh scripts add up."""

import random

import pytest

from bench_e2e.workloads import (
    WORKLOADS,
    Op,
    RoundResult,
    mutate_rows,
    retailer_oracle,
    retailer_query,
    supplier_oracle,
)
from repro.tpch import TpchGenerator


def _built(name, seed):
    workload = WORKLOADS[name](seed, peers=4)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name):
    first, second, other = _built(name, 11), _built(name, 11), _built(name, 12)
    for index in (0, 1, 7):
        assert first.round_ops(index) == second.round_ops(index)
        # asking twice changes nothing: op lists are a function of the inputs
        assert first.round_ops(index) == first.round_ops(index)
    assert [first.round_ops(i) for i in range(8)] != [other.round_ops(i) for i in range(8)]


def test_scan_pushdown_fresh_literal_is_new_every_round():
    workload = _built("scan_pushdown", 5)
    fresh = [workload.round_ops(i)[-1].sql for i in range(50)]
    pooled = {op.sql for i in range(50) for op in workload.round_ops(i)[:-1]}
    assert len(set(fresh)) == 50
    assert not pooled & set(fresh)
    assert len(pooled) <= 16  # Q1 and Q2 each draw from a pool of 8


def test_refresh_script_changes_what_it_says():
    rows = TpchGenerator(seed=3).generate_peer(
        1, tables=["lineitem"], nation_key=4, with_nation_key=True
    )["lineitem"]
    snapshot, changes = mutate_rows(rows, "lineitem", random.Random(9), serial=2)
    again, _ = mutate_rows(rows, "lineitem", random.Random(9), serial=2)
    assert snapshot == again
    old, new = set(rows), set(snapshot)
    assert len(new) == len(snapshot)  # inserted clones are distinct rows
    assert len(old - new) + len(new - old) == changes
    count = len(rows)
    assert changes == 2 * round(0.05 * count) + 2 * round(0.02 * count)
    # a later refresh never reuses an inserted key
    later, _ = mutate_rows(snapshot, "lineitem", random.Random(9), serial=3)
    assert len(set(later)) == len(later)


def test_small_tables_still_change():
    rows = TpchGenerator(seed=3).generate_peer(
        0, tables=["supplier"], nation_key=0, with_nation_key=True
    )["supplier"]
    snapshot, changes = mutate_rows(rows, "supplier", random.Random(1), serial=1)
    assert changes == 4  # one update (two changes), one delete, one insert
    assert len(snapshot) == len(rows)


def test_oracles_agree_with_the_engine_and_masking_bites():
    workload = _built("supply_chain_mixed", 21)
    supplier = next(a for a in workload.assignments if a.role == "supplier")
    retailer = next(a for a in workload.assignments if a.role == "retailer")
    for target, oracle in ((supplier, supplier_oracle), (retailer, retailer_oracle)):
        plain = oracle(workload.data[target.peer_id], masked=False)
        masked = oracle(workload.data[target.peer_id], masked=True)
        assert plain and len(plain) == len(masked)
        assert plain != masked
    # run_round checks every query against these oracles
    for index in range(3):
        result = workload.run_round(index)
        assert [o.error for o in result.outcomes if o.error] == []
        refresh = result.outcomes[-1]
        assert refresh.op.kind == "refresh"
        assert refresh.changed_rows == refresh.op.expected_changes > 0


def test_a_read_that_misses_the_refresh_is_caught():
    workload = _built("supply_chain_mixed", 21)
    retailer = next(a for a in workload.assignments if a.role == "retailer")
    before = list(workload.data[retailer.peer_id]["lineitem"])
    rows, changes = mutate_rows(before, "lineitem", random.Random(4), serial=1)
    refresh = Op("refresh", "refresh/lineitem", peer_id=retailer.peer_id,
                 table="lineitem", rows=tuple(rows), expected_changes=changes)
    result = RoundResult(wall_s=0.0)
    workload._refresh(refresh, result)
    assert result.outcomes[-1].error is None
    assert workload._last_refreshed == retailer

    # The next round's first read goes to the refreshed peer and passes...
    first = workload.round_ops(1)[0]
    assert first.sql == retailer_query(retailer.nation_key)
    assert workload._serve([first], 1).outcomes[0].error is None
    # ...and an answer computed from the old snapshot does not.
    workload.data[retailer.peer_id]["lineitem"] = before
    workload._oracle_cache.clear()
    stale = workload.round_ops(1)[0]
    assert "result mismatch" in workload._serve([stale], 1).outcomes[0].error

    # A refresh that changes a different number of rows than the script says fails.
    workload.data[retailer.peer_id]["lineitem"] = rows
    again, changes = mutate_rows(rows, "lineitem", random.Random(5), serial=2)
    wrong = Op("refresh", "refresh/lineitem", peer_id=retailer.peer_id,
               table="lineitem", rows=tuple(again), expected_changes=changes + 1)
    workload._refresh(wrong, result)
    assert "generator changed" in result.outcomes[-1].error
