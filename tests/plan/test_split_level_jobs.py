"""MapReduce jobs map whole splits, and a shuffled row is measured once.

Two properties of the join chains that HadoopDB and BestPeer++'s MapReduce
engine run:

* a row's text (``len(str(row))``, the price of a shuffled ``(tag, row)``)
  and its typed size (what a stage file is priced by) are measured once,
  on its owner's result batch: a warm second run of Q5 measures nothing,
  because owners replay their batches and join outputs derive their widths
  and sizes, and no stage file is priced by measuring its records;
* the shuffle ships exactly what the per-pair shuffle shipped, although a
  join's rows now travel without their tags (a map output names its side
  once).  That shuffle lives on here as the oracle engine: every pair
  routed, each join row rebuilt as ``(tag, row)`` and priced by ``str()``,
  reduced key group by key group, and every stage file priced by measuring
  its records.  The oracle's driver keeps every column of a stage's output
  (``tests.helpers.keep_every_column``), so it measures whole rows; the
  split-level path keeps only the columns a later step reads, and prices
  them as those whole rows.  The ``(src, dst, nbytes)`` sequence of
  every simulated transfer (HDFS writes included), the simulated seconds,
  the bytes and the rows must be identical.
"""

import pytest

import repro.core.engine_mapreduce as engine_mapreduce
import repro.mapreduce.engine as engine_module
import repro.sqlengine.batch as batch_module
from repro.core import BestPeerNetwork
from repro.errors import SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.mapreduce import MapReduceEngine
from repro.mapreduce.job import _sortable
from repro.sim.network import SimNetwork
from repro.sqlengine import Column, ColumnType, TableSchema
from repro.sqlengine.batch import ColumnBatch
from repro.sqlengine.types import value_byte_size
from repro.tpch import Q3, Q4, Q5, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator
from tests.helpers import keep_every_column
from tests.property.test_wire_pricing import by_value_byte_size

NUM_PEERS = 3
QUERIES = {"q3": Q3(), "q4": Q4(), "q5": Q5()}


def build_network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=13, scale=0.4)
    for index in range(NUM_PEERS):
        net.add_peer(f"corp-{index}")
        net.load_peer(f"corp-{index}", generator.generate_peer(index))
    return net


def build_cluster():
    cluster = HadoopDbCluster(NUM_PEERS)
    cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
    generator = TpchGenerator(seed=13, scale=0.4)
    for index in range(NUM_PEERS):
        cluster.load_worker(index, generator.generate_peer(index))
    return cluster


def shipped(side, value):
    """What the per-pair shuffle shipped: a join's row as ``(tag, row)``."""
    return value if side is None else (side, value)


class PerPairEngine(MapReduceEngine):
    """The shuffle as it was: each pair routed and priced on its own (the
    value, a join's row rebuilt as ``(tag, row)`` from its map output's
    side, by ``str()``), then each reducer's key groups reduced one by one,
    and the output's widths and sizes measured from its rows.  Its lanes
    are shipped by the engine's one ``_ship``."""

    def _shuffle(self, job, map_outputs):
        partitions = [{} for _ in range(job.num_reducers)]
        lane_bytes = {}
        for host, output in map_outputs:
            batch = output.batch
            for position, (key, value) in enumerate(zip(output.keys, batch.rows)):
                reducer = self._partition_of(key, job.num_reducers)
                partitions[reducer].setdefault(key, []).append(
                    (output.side, batch, position)
                )
                lane = (host, reducer)
                lane_bytes[lane] = (
                    lane_bytes.get(lane, 0)
                    + value_byte_size(key)
                    + by_value_byte_size([shipped(output.side, value)])
                )
        return partitions, [
            (host, reducer, nbytes)
            for (host, reducer), nbytes in sorted(lane_bytes.items())
        ]

    def _run_reduce_phase(self, job, partitions):
        records, reducer_rows = [], []
        for partition in partitions:
            reduced = []
            for key in sorted(partition, key=_sortable):
                values = partition[key]
                sizes = [
                    by_value_byte_size([shipped(side, batch.rows[position])])
                    for side, batch, position in values
                ]
                runs = [(side, batch, [position]) for side, batch, position in values]
                output = job.reduce_fn([key] * len(values), sizes, runs)
                reduced.extend(output.rows)
            reducer_rows.append(sum(map(len, partition.values())) + len(reduced))
            records.extend(reduced)
        # An empty input gives the output's shape; nothing rides with the rows.
        columns = job.reduce_fn([], [], []).columns
        return ColumnBatch.from_rows(columns, records), reducer_rows


@pytest.fixture
def transfers(monkeypatch):
    log = []
    original = SimNetwork.transfer

    def recording(self, src, dst, nbytes, *args, **kwargs):
        log.append((src, dst, nbytes))
        return original(self, src, dst, nbytes, *args, **kwargs)

    monkeypatch.setattr(SimNetwork, "transfer", recording)
    return log


@pytest.fixture
def measured(monkeypatch):
    """How often row texts, rows' typed sizes and whole record lists have
    been measured."""
    counts = {}

    def count_calls(module, name):
        original = getattr(module, name)
        counts[name] = 0

        def counting(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    count_calls(batch_module, "text_widths")
    count_calls(batch_module, "row_sizes")
    count_calls(engine_module, "records_byte_size")
    return counts


class TestRowsAreMeasuredOnce:
    def test_a_warm_q5_on_mapreduce_measures_no_row(self, measured):
        net = build_network()
        cold = net.execute(Q5(), engine="mapreduce")
        assert measured["text_widths"] > 0 and measured["row_sizes"] > 0
        before = dict(measured)
        warm = net.execute(Q5(), engine="mapreduce")
        assert measured == before
        assert warm.records == cold.records
        # Q5's three stage files are priced by their rows' carried sizes.
        assert measured["records_byte_size"] == 0

    def test_a_warm_q5_on_hadoopdb_measures_no_row(self, measured):
        cluster = build_cluster()
        cold = cluster.execute(Q5())
        assert measured["text_widths"] > 0 and measured["row_sizes"] > 0
        before = dict(measured)
        warm = cluster.execute(Q5())
        assert measured == before
        assert warm.records == cold.records
        assert measured["records_byte_size"] == 0


@pytest.mark.parametrize("name", sorted(QUERIES))
class TestTransfersMatchThePerPairShuffle:
    def test_hadoopdb(self, transfers, monkeypatch, name):
        split_level, per_pair = build_cluster(), build_cluster()
        per_pair.engine = per_pair._driver.engine = PerPairEngine(
            per_pair.workers, per_pair.network, per_pair.hdfs, per_pair.engine.config
        )
        transfers.clear()
        got = split_level.execute(QUERIES[name])
        got_log = list(transfers)
        keep_every_column(monkeypatch)
        transfers.clear()
        want = per_pair.execute(QUERIES[name])
        assert got_log == transfers and len(got_log) > 0
        assert got.duration_s == want.duration_s
        assert got.records == want.records and got.num_jobs == want.num_jobs

    def test_bestpeer_mapreduce(self, transfers, monkeypatch, name):
        split_level, per_pair = build_network(), build_network()
        transfers.clear()
        got = split_level.execute(QUERIES[name], engine="mapreduce")
        got_log = list(transfers)
        monkeypatch.setattr(engine_mapreduce, "MapReduceEngine", PerPairEngine)
        keep_every_column(monkeypatch)
        transfers.clear()
        want = per_pair.execute(QUERIES[name], engine="mapreduce")
        assert got_log == transfers and len(got_log) > 0
        assert got.latency_s == want.latency_s
        assert got.bytes_transferred == want.bytes_transferred
        assert got.records == want.records


A = TableSchema("a", [
    Column("id", ColumnType.INTEGER),
    Column("v", ColumnType.FLOAT),
    Column("s", ColumnType.TEXT),
])
B = TableSchema("b", [Column("fid", ColumnType.INTEGER), Column("w", ColumnType.FLOAT)])


@pytest.mark.parametrize("offset", [0, 1, 2])
def test_a_failing_residual_raises_the_per_pair_shuffles_first_error(offset):
    """Rows raise different errors (division by zero where ``w`` is 0, text
    arithmetic where ``s`` is set), so only the per-pair order — reducers,
    keys in merge-sort order, lefts x rights — gives the same first one."""
    a_rows = [(k, float(k), "x" if (k + offset) % 3 == 0 else None) for k in range(1, 60)]
    b_rows = [(k, float((k + offset) % 4)) for k in range(1, 60)]
    errors = []
    for engine in (MapReduceEngine, PerPairEngine):
        cluster = HadoopDbCluster(NUM_PEERS)
        cluster.create_tables([A, B])
        for index in range(NUM_PEERS):
            cluster.load_worker(index, {
                "a": a_rows[index::NUM_PEERS],
                "b": b_rows[(index + 1) % NUM_PEERS::NUM_PEERS],
            })
        cluster.engine = cluster._driver.engine = engine(
            cluster.workers, cluster.network, cluster.hdfs, cluster.engine.config
        )
        with pytest.raises(SqlExecutionError) as raised:
            cluster.execute(
                "SELECT a.id FROM a, b WHERE a.id = b.fid AND a.v / b.w + a.s > 1"
            )
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
