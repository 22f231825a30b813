"""How many fetched rows the basic engine's query peer processes.

The whole-query benchmark's ``join_fetch`` round runs Q3 and Q4 over pools
of eight literals and Q5 through the basic engine on five peers of TPC-H at
scale 2 (data seed 42).  The rows each query fetches — the rows the paper's
query peer would stage in MemTables, and the rows its final plan scans — are
exact for that data.  A change to the bloom join, the pushed-down
predicates or the pruning may make the query peer faster; it may not make
it process other rows.
"""

import datetime

import pytest

from repro.core import BestPeerNetwork, engine_basic
from repro.tpch import Q3, Q4, Q5, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator


def _days_before(date, days):
    return (datetime.date.fromisoformat(date) - datetime.timedelta(days)).isoformat()


Q3_POOL = [
    (_days_before("1998-03-01", 15 * k), _days_before("1998-06-01", 15 * k))
    for k in range(8)
]
Q4_POOL = list(range(20, 28))


@pytest.fixture(scope="module")
def network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=42, scale=2.0)
    for index in range(5):
        net.add_peer(f"corp-{index}")
        net.load_peer(f"corp-{index}", generator.generate_peer(index))
    return net


def test_rows_processed_per_query(network, monkeypatch):
    processed = []
    original = engine_basic._process_fetched

    def counting(*args):
        result = original(*args)
        processed.append(result[2])
        return result

    monkeypatch.setattr(engine_basic, "_process_fetched", counting)

    def rows(sql):
        execution = network.execute(sql, engine="basic")
        assert execution.strategy == "fetch-and-process"
        return processed.pop()

    q3 = [rows(Q3(*dates)) for dates in Q3_POOL]
    q4 = [rows(Q4(size)) for size in Q4_POOL]
    q5 = rows(Q5())
    assert q3 == [462, 575, 671, 738, 829, 871, 992, 1068]
    assert q4 == [1855, 1849, 1839, 1835, 1828, 1821, 1809, 1798]
    assert q5 == 15366
    # One join_fetch round on average: what its traced run counted as
    # ``sqlengine.stage_rows`` while staging ran through MemTables.
    assert sum(q3) / 8 + sum(q4) / 8 + q5 == 17971
