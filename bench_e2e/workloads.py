"""The four workloads: how each network is built and what one round does.

The benchmark owns its inputs.  The cost-model constants and the SQL text
below are *copies* of what ``repro.bench.harness`` / ``repro.tpch.queries``
hold today, so a later change to those modules cannot silently change what
is measured; the program receives only generated inputs through its public
front doors (``BestPeerNetwork``, ``HadoopDbCluster``, ``TpchGenerator``,
``SupplyChainPartitioner``).

A *round* is one pass over a workload's op list; an *op* is one query or
one refresh.  Op lists are a pure function of ``(seed, workload, round)``.
"""

from __future__ import annotations

import datetime
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import BestPeerNetwork
from repro.core.access_control import READ, rule
from repro.core.costmodel import CostParams
from repro.errors import ReproError
from repro.hadoopdb import HadoopDbCluster
from repro.mapreduce.engine import MapReduceConfig
from repro.serving.admission import ServingRequest
from repro.sim.compute import ComputeModel
from repro.sim.network import NetworkConfig, SimNetwork
from repro.tpch import (
    COMMON_TABLES,
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    SupplyChainPartitioner,
    TpchGenerator,
    schema_for,
)
from repro.tpch.schema import NATION_KEY_COLUMNS, TABLE_NAMES

from bench_e2e.stats import digest_rows, rows_match

# ----------------------------------------------------------------------
# Cost-model constants (copied from repro.bench.harness at PR 11)
# ----------------------------------------------------------------------
ROW_SCALE = 30.0
DATA_SCALE = 2.0
SUPPLY_CHAIN_DATA_SCALE = 1.0
#: As with TPC-H's dbgen and qgen, the data set is fixed and ``--seed``
#: drives the query stream: which peer submits, the order literals, target
#: nations and refresh targets take their turns in, arrival times, and the
#: rows each refresh touches.  Ten seeds then do the same amount of work,
#: which is what lets a run-to-run spread be read as noise.
DATA_SEED = 42

#: Rounds run before timing starts (caches and lazy column mirrors fill).
WARMUP_ROUNDS = 3
#: Each literal is drawn from a pool of this many, visited in a seeded
#: order that repeats, so any LITERAL_POOL consecutive rounds use each once.
LITERAL_POOL = 8
#: scan_pushdown's never-used-before ship date: FRESH_DATES distinct days,
#: visited FRESH_HOP (coprime) apart.
FRESH_DATES = 800
FRESH_HOP = 331
#: The first FIXED_ROUNDS timed rounds carry the simulated-clock metrics,
#: the golden digests and the RSS reading, so those do not depend on how
#: many rounds the wall clock lets a run fit into ``--seconds``.  A
#: multiple of LITERAL_POOL: every literal counts equally often.
FIXED_ROUNDS = 24


def compute_model() -> ComputeModel:
    return ComputeModel(
        scan_s_per_row=1e-5 * ROW_SCALE,
        emit_s_per_row=2e-5 * ROW_SCALE,
        join_s_per_row=5e-6 * ROW_SCALE,
        index_probe_s=5e-6 * ROW_SCALE,
    )


def network_config() -> NetworkConfig:
    return NetworkConfig(
        bandwidth_bytes_per_s=100e6 / ROW_SCALE,
        loopback_bandwidth_bytes_per_s=2e9 / ROW_SCALE,
    )


def mr_config() -> MapReduceConfig:
    return MapReduceConfig(
        job_startup_s=12.0,
        shuffle_notification_delay_s=1.0,
        map_cpu_per_record_s=4e-6 * ROW_SCALE,
        reduce_cpu_per_record_s=4e-6 * ROW_SCALE,
    )


def cost_params() -> CostParams:
    mu = 9.2e6
    return CostParams(phi=12.0 * mu, mu=mu)


# ----------------------------------------------------------------------
# SQL text (copied from repro.tpch.queries at PR 11)
# ----------------------------------------------------------------------
def q1(ship_date: str, commit_date: str) -> str:
    return (
        "SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity "
        "FROM lineitem "
        f"WHERE l_shipdate > DATE '{ship_date}' "
        f"AND l_commitdate > DATE '{commit_date}'"
    )


def q2(ship_date: str) -> str:
    return (
        "SELECT SUM(l_extendedprice * (1 - l_discount)) AS total_price "
        "FROM lineitem "
        f"WHERE l_shipdate > DATE '{ship_date}'"
    )


def q3(ship_date: str, order_date: str) -> str:
    return (
        "SELECT l_orderkey, o_orderdate, o_shippriority, l_extendedprice "
        "FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey "
        f"AND l_shipdate > DATE '{ship_date}' "
        f"AND o_orderdate > DATE '{order_date}'"
    )


def q4(min_size: int) -> str:
    return (
        "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS total_value "
        "FROM partsupp, part "
        "WHERE ps_partkey = p_partkey "
        f"AND p_size > {min_size} "
        "GROUP BY ps_partkey"
    )


Q5 = (
    "SELECT s_nationkey, "
    "SUM(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM customer, orders, lineitem, supplier "
    "WHERE c_custkey = o_custkey "
    "AND l_orderkey = o_orderkey "
    "AND l_suppkey = s_suppkey "
    "AND c_nationkey = s_nationkey "
    "GROUP BY s_nationkey "
    "ORDER BY revenue DESC"
)


def supplier_query(nation_key: int) -> str:
    return (
        "SELECT s_suppkey, s_name, SUM(ps_supplycost * ps_availqty) AS stock_value "
        "FROM supplier, partsupp, part "
        "WHERE s_suppkey = ps_suppkey "
        "AND ps_partkey = p_partkey "
        f"AND s_nationkey = {nation_key} "
        f"AND ps_nationkey = {nation_key} "
        f"AND p_nationkey = {nation_key} "
        "GROUP BY s_suppkey, s_name"
    )


def retailer_query(nation_key: int) -> str:
    return (
        "SELECT c_custkey, c_name, "
        "SUM(l_extendedprice * (1 - l_discount)) AS revenue "
        "FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey "
        "AND o_orderkey = l_orderkey "
        f"AND c_nationkey = {nation_key} "
        f"AND o_nationkey = {nation_key} "
        f"AND l_nationkey = {nation_key} "
        "GROUP BY c_custkey, c_name"
    )


def _shift(date: str, days: int) -> str:
    return (datetime.date.fromisoformat(date) + datetime.timedelta(days=days)).isoformat()


def _date_pool(anchor: str, step_days: int) -> List[str]:
    """LITERAL_POOL dates stepping back from ``anchor`` (the paper's literal)."""
    return [_shift(anchor, -step_days * k) for k in range(LITERAL_POOL)]


# The pools are the same for every seed; the seed picks the order they are
# visited in.
Q1_POOL = list(zip(_date_pool("1998-09-15", 7), _date_pool("1998-07-01", 7)))
Q2_POOL = _date_pool("1998-06-01", 15)
Q3_POOL = list(zip(_date_pool("1998-03-01", 15), _date_pool("1998-06-01", 15)))
Q4_POOL = list(range(20, 20 + LITERAL_POOL))


# ----------------------------------------------------------------------
# Ops and their outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One query or one refresh, fully described by generated inputs."""

    kind: str  # "query" | "hadoopdb" | "refresh"
    label: str
    sql: str = ""
    engine: str = "basic"
    user: Optional[str] = None
    peer_id: Optional[str] = None
    # refresh ops only
    table: str = ""
    rows: Tuple[tuple, ...] = ()
    expected_changes: int = 0
    # when set, the rows every correct execution must return (an oracle's)
    expected_rows: Optional[Tuple[tuple, ...]] = None


@dataclass
class Outcome:
    """What one op did, read only from the program's public result fields."""

    op: Op
    rows: Sequence[tuple] = ()
    digest: str = ""
    sim_s: float = 0.0
    nbytes: int = 0
    hops: int = 0
    strategy: str = ""
    jobs: int = 0
    changed_rows: int = 0
    error: Optional[str] = None


@dataclass
class RoundResult:
    wall_s: float
    outcomes: List[Outcome] = field(default_factory=list)
    shed: int = 0


class Workload:
    """Base: build once, then ``run_round(i)`` any number of times."""

    name = ""
    why = ""
    default_peers = 0

    def __init__(self, seed: int, peers: Optional[int] = None) -> None:
        self.seed = seed
        self.peers = peers or self.default_peers
        self.network: Optional[BestPeerNetwork] = None
        self.cluster: Optional[HadoopDbCluster] = None
        self.generate_s = 0.0
        self.load_peer_s = 0.0
        # First rows seen per SQL text: every engine, and every repeat,
        # must return the same row multiset for the same SQL.
        self._rows_by_sql: Dict[str, Sequence[tuple]] = {}

    # -- seeded inputs ---------------------------------------------------
    def rng(self, *scope: object) -> random.Random:
        return random.Random(repr((self.seed, self.name) + scope))

    def order(self, size: int, *scope: object) -> List[int]:
        """A seeded permutation of ``range(size)``, to cycle through."""
        order = list(range(size))
        self.rng("order", *scope).shuffle(order)
        return order

    def round_ops(self, index: int) -> List[Op]:
        raise NotImplementedError

    def cross_check_ops(self, ops: Sequence[Op]) -> List[Op]:
        """Extra ops for the first (untimed) warm-up round: the same SQL
        through other engines, whose digests must agree."""
        return []

    # -- building --------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def _timed(self, bucket: str, fn: Callable[[], object]) -> object:
        """Run ``fn``, adding its wall time to ``generate_s`` or ``load_peer_s``."""
        start = time.perf_counter()
        value = fn()
        setattr(self, bucket, getattr(self, bucket) + time.perf_counter() - start)
        return value

    def _build_tpch_network(self) -> BestPeerNetwork:
        """The paper's 6.1 set-up: every peer loads all eight tables."""
        network = BestPeerNetwork(
            TPCH_SCHEMAS,
            SECONDARY_INDICES,
            mr_config=mr_config(),
            cost_params=cost_params(),
            compute_model=compute_model(),
            network_config=network_config(),
        )
        generator = TpchGenerator(seed=DATA_SEED, scale=DATA_SCALE)
        for index in range(self.peers):
            peer_id = f"corp-{index}"
            data = self._timed("generate_s", lambda: generator.generate_peer(index))
            network.add_peer(peer_id)
            self._timed("load_peer_s", lambda: network.load_peer(peer_id, data))
        role = network.create_full_access_role()
        network.create_user("bench", "corp-0", role)
        network.build_histogram("lineitem", ["l_shipdate"])
        network.build_histogram("orders", ["o_orderdate"])
        network.build_histogram("part", ["p_size"])
        self._peer_order = self.order(self.peers, "query peer")
        return network

    def query_peer(self, index: int) -> str:
        """Rounds are submitted from the peers in turn, in a seeded order."""
        return f"corp-{self._peer_order[index % self.peers]}"

    def _build_hadoopdb(self) -> HadoopDbCluster:
        cluster = HadoopDbCluster(
            self.peers,
            network=SimNetwork(network_config()),
            mr_config=mr_config(),
            compute_model=compute_model(),
        )
        cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
        generator = TpchGenerator(seed=DATA_SEED, scale=DATA_SCALE)
        for index in range(self.peers):
            data = self._timed("generate_s", lambda: generator.generate_peer(index))
            self._timed("load_peer_s", lambda: cluster.load_worker(index, data))
        return cluster

    # -- running ---------------------------------------------------------
    def run_round(self, index: int, cross_check: bool = False) -> RoundResult:
        """Closed loop, one client: each op starts when the last returned.

        Only the front-door call is timed; digesting and checking happen
        outside the timed region.  ``cross_check`` (first warm-up round)
        appends the round's SQL through the other engines.
        """
        result = RoundResult(wall_s=0.0)
        ops = self.round_ops(index)
        if cross_check:
            ops = ops + self.cross_check_ops(ops)
        for op in ops:
            start = time.perf_counter()
            try:
                raw = self._call(op)
            except ReproError as error:
                result.wall_s += time.perf_counter() - start
                result.outcomes.append(
                    Outcome(op, error=f"{type(error).__name__}: {error}")
                )
                continue
            result.wall_s += time.perf_counter() - start
            outcome = self._outcome(op, raw)
            self.check(outcome)
            result.outcomes.append(outcome)
        return result

    def _call(self, op: Op) -> object:
        if op.kind == "hadoopdb":
            return self.cluster.execute(op.sql)
        return self.network.execute(
            op.sql, peer_id=op.peer_id, engine=op.engine, user=op.user
        )

    @staticmethod
    def _outcome(op: Op, raw: object) -> Outcome:
        if op.kind == "hadoopdb":
            return Outcome(
                op,
                rows=raw.records,
                digest=digest_rows(raw.records),
                sim_s=raw.duration_s,
                strategy="hadoopdb",
                jobs=raw.num_jobs,
            )
        return Outcome(
            op,
            rows=raw.records,
            digest=digest_rows(raw.records),
            sim_s=raw.latency_s,
            nbytes=raw.bytes_transferred,
            hops=raw.index_hops,
            strategy=raw.strategy,
        )

    def check(self, outcome: Outcome) -> None:
        """Same SQL, same rows — whichever engine or repeat produced them."""
        expected = outcome.op.expected_rows
        if expected is None:
            expected = self._rows_by_sql.setdefault(outcome.op.sql, outcome.rows)
        if expected is not outcome.rows and not rows_match(outcome.rows, expected):
            outcome.error = (
                f"result mismatch for {outcome.op.label}: digest {outcome.digest}, "
                f"expected {digest_rows(expected)}"
            )
        outcome.rows = ()  # checked; do not hold result sets across rounds


# ----------------------------------------------------------------------
# join_fetch
# ----------------------------------------------------------------------
class JoinFetch(Workload):
    name = "join_fetch"
    why = (
        "fetch-and-process joins (Q3, Q4, Q5) through the basic engine: "
        "query-peer staging, owner fetch, access rewrite and byte pricing "
        "do the work; owner-side kernels do little"
    )
    default_peers = 5

    def setup(self) -> None:
        self.network = self._build_tpch_network()
        self._q3_order = self.order(LITERAL_POOL, "q3")
        self._q4_order = self.order(LITERAL_POOL, "q4")

    def round_ops(self, index: int) -> List[Op]:
        slot = index % LITERAL_POOL
        peer = self.query_peer(index)
        return [
            Op("query", "Q3/basic", q3(*Q3_POOL[self._q3_order[slot]]), "basic", "bench", peer),
            Op("query", "Q4/basic", q4(Q4_POOL[self._q4_order[slot]]), "basic", "bench", peer),
            Op("query", "Q5/basic", Q5, "basic", "bench", peer),
        ]

    def cross_check_ops(self, ops: Sequence[Op]) -> List[Op]:
        return [
            Op("query", op.label.replace("basic", "parallel"), op.sql, "parallel",
               "bench", op.peer_id)
            for op in ops
        ]


# ----------------------------------------------------------------------
# scan_pushdown
# ----------------------------------------------------------------------
class ScanPushdown(Workload):
    name = "scan_pushdown"
    why = (
        "single-table Q1/Q2 over 20 peers, basic and adaptive: owner-side "
        "SQL execution, index lookup and per-peer call fan-out do the work; "
        "staging does none, so a staging change predicts no move"
    )
    default_peers = 20

    def setup(self) -> None:
        self.network = self._build_tpch_network()
        self._q1_order = self.order(LITERAL_POOL, "q1")
        self._q2_order = self.order(LITERAL_POOL, "q2")

    def round_ops(self, index: int) -> List[Op]:
        slot = index % LITERAL_POOL
        q1_sql = q1(*Q1_POOL[self._q1_order[slot]])
        q2_sql = q2(Q2_POOL[self._q2_order[slot]])
        # One ship date per round that no earlier round used (for the first
        # FRESH_DATES rounds, several times a run's length).  The dates hop
        # around a band well before the pooled ones instead of counting up,
        # so how much the query selects does not drift as a run goes on.
        fresh = q2(_shift("1995-06-01", index * FRESH_HOP % FRESH_DATES))
        peer = self.query_peer(index)
        return [
            Op("query", "Q1/basic", q1_sql, "basic", "bench", peer),
            Op("query", "Q1/adaptive", q1_sql, "adaptive", "bench", peer),
            Op("query", "Q2/basic", q2_sql, "basic", "bench", peer),
            Op("query", "Q2/adaptive", q2_sql, "adaptive", "bench", peer),
            Op("query", "Q2-fresh/basic", fresh, "basic", "bench", peer),
        ]


# ----------------------------------------------------------------------
# shuffle_engines
# ----------------------------------------------------------------------
class ShuffleEngines(Workload):
    name = "shuffle_engines"
    why = (
        "Q4 parallel, Q4 and Q5 MapReduce, Q3 on HadoopDB: record byte "
        "pricing and the MapReduce shuffle do the work, not staging; also "
        "cross-checks that every engine returns the same rows"
    )
    default_peers = 5

    def setup(self) -> None:
        self.network = self._build_tpch_network()
        self.cluster = self._build_hadoopdb()
        self._q3_order = self.order(LITERAL_POOL, "q3")
        self._q4_order = self.order(LITERAL_POOL, "q4")

    def round_ops(self, index: int) -> List[Op]:
        slot = index % LITERAL_POOL
        q4_sql = q4(Q4_POOL[self._q4_order[slot]])
        peer = self.query_peer(index)
        return [
            Op("query", "Q4/parallel", q4_sql, "parallel", "bench", peer),
            Op("query", "Q4/mapreduce", q4_sql, "mapreduce", "bench", peer),
            Op("query", "Q5/mapreduce", Q5, "mapreduce", "bench", peer),
            Op("hadoopdb", "Q3/hadoopdb", q3(*Q3_POOL[self._q3_order[slot]])),
        ]

    def cross_check_ops(self, ops: Sequence[Op]) -> List[Op]:
        q4_op, _, q5_op, q3_op = ops
        peer = q4_op.peer_id
        return [
            Op("query", "Q4/basic", q4_op.sql, "basic", "bench", peer),
            Op("hadoopdb", "Q4/hadoopdb", q4_op.sql),
            Op("query", "Q5/basic", q5_op.sql, "basic", "bench", peer),
            Op("hadoopdb", "Q5/hadoopdb", q5_op.sql),
            Op("query", "Q3/basic", q3_op.sql, "basic", "bench", peer),
            Op("query", "Q3/mapreduce", q3_op.sql, "mapreduce", "bench", peer),
        ]


# ----------------------------------------------------------------------
# supply_chain_mixed
# ----------------------------------------------------------------------
#: Auditor's value ranges; outside them the owner masks the value to NULL.
AUDITOR_DISCOUNT_RANGE = (0.0, 0.05)
AUDITOR_SUPPLYCOST_RANGE = (1.0, 500.0)
TESTER_QUERIES = 30
AUDITOR_QUERIES = 10
#: Offered load as a share of the probed capacity (workers / mean service).
LOAD_FACTOR = 0.5
UPDATE_FRACTION = 0.05
DELETE_FRACTION = 0.02
INSERT_FRACTION = 0.02

# Per refreshable table: the column an "update" bumps by one.
_UPDATE_COLUMN = {
    "supplier": "s_acctbal",
    "partsupp": "ps_availqty",
    "part": "p_retailprice",
    "lineitem": "l_extendedprice",
    "orders": "o_totalprice",
    "customer": "c_acctbal",
}
# Per refreshable table: the column that makes an inserted clone distinct
# (the primary key where there is one).
_INSERT_COLUMN = {
    "supplier": "s_suppkey",
    "partsupp": "ps_availqty",
    "part": "p_partkey",
    "lineitem": "l_linenumber",
    "orders": "o_orderkey",
    "customer": "c_custkey",
}


def mutate_rows(
    rows: Sequence[tuple], table: str, rng: random.Random, serial: int
) -> Tuple[List[tuple], int]:
    """One refresh script: the table's next snapshot and its change count.

    Updates 5 %, deletes 2 % and inserts 2 % of the rows (at least one
    each).  An update is a delete plus an insert to the snapshot differ,
    so the expected ``change_count`` is ``2 * updated + deleted + inserted``.
    ``serial`` (the round index) keeps inserted keys distinct across refreshes.
    """
    schema = schema_for(table, with_nation_key=True)
    update_at = schema.column_index(_UPDATE_COLUMN[table])
    insert_at = schema.column_index(_INSERT_COLUMN[table])
    count = len(rows)
    n_update = max(1, round(UPDATE_FRACTION * count))
    n_delete = max(1, round(DELETE_FRACTION * count))
    n_insert = max(1, round(INSERT_FRACTION * count))
    touched = rng.sample(range(count), n_update + n_delete)
    updated = set(touched[:n_update])
    deleted = set(touched[n_update:])
    snapshot: List[tuple] = []
    for position, row in enumerate(rows):
        if position in deleted:
            continue
        if position in updated:
            row = row[:update_at] + (row[update_at] + 1,) + row[update_at + 1:]
        snapshot.append(row)
    for offset in range(n_insert):
        source = rows[rng.randrange(count)]
        # Upper half of the peer's key stride (dbgen's KEY_STRIDE = 10M;
        # generated keys sit at its very start), distinct per refresh.
        stride_base = source[insert_at] - source[insert_at] % 10_000_000
        marker = stride_base + 5_000_000 + serial * 1000 + offset
        snapshot.append(source[:insert_at] + (marker,) + source[insert_at + 1:])
    return snapshot, 2 * n_update + n_delete + n_insert


def _mask(value: object, allowed: Tuple[float, float]) -> object:
    return value if value is None or allowed[0] <= value <= allowed[1] else None


def _sum_skipping_null(values: Sequence[object]) -> object:
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def supplier_oracle(data: Dict[str, List[tuple]], masked: bool) -> List[tuple]:
    """The supplier query's answer, computed from the generator's rows."""
    parts = {row[0] for row in data["part"]}
    by_supplier: Dict[int, List[object]] = {}
    for ps_partkey, ps_suppkey, availqty, supplycost, *_ in data["partsupp"]:
        if ps_partkey not in parts:
            continue
        if masked:
            supplycost = _mask(supplycost, AUDITOR_SUPPLYCOST_RANGE)
        value = None if supplycost is None else supplycost * availqty
        by_supplier.setdefault(ps_suppkey, []).append(value)
    # part keys are unique, so each partsupp row joins at most one part
    return [
        (row[0], row[1], _sum_skipping_null(by_supplier[row[0]]))
        for row in data["supplier"]
        if row[0] in by_supplier
    ]


def retailer_oracle(data: Dict[str, List[tuple]], masked: bool) -> List[tuple]:
    """The retailer query's answer, computed from the generator's rows."""
    customer_of_order = {row[0]: row[1] for row in data["orders"]}
    by_customer: Dict[int, List[object]] = {}
    for row in data["lineitem"]:
        customer = customer_of_order.get(row[0])
        if customer is None:
            continue
        price, discount = row[5], row[6]
        if masked:
            discount = _mask(discount, AUDITOR_DISCOUNT_RANGE)
        value = None if discount is None else price * (1 - discount)
        by_customer.setdefault(customer, []).append(value)
    return [
        (row[0], row[1], _sum_skipping_null(by_customer[row[0]]))
        for row in data["customer"]
        if row[0] in by_customer
    ]


class SupplyChainMixed(Workload):
    name = "supply_chain_mixed"
    why = (
        "writes beside reads: 40 short queries through the serving front "
        "door plus one differential refresh per round, so loader, table "
        "writes, index republish and cache refill show, and per-query overhead"
    )
    default_peers = 20

    def setup(self) -> None:
        generator = TpchGenerator(seed=DATA_SEED, scale=SUPPLY_CHAIN_DATA_SCALE)
        partitioner = SupplyChainPartitioner(generator)
        schemas = {name: schema_for(name, with_nation_key=True) for name in TABLE_NAMES}
        network = BestPeerNetwork(
            schemas,
            secondary_indices=None,
            mr_config=mr_config(),
            compute_model=compute_model(),
            network_config=network_config(),
        )
        self.assignments = partitioner.assign([f"peer-{i}" for i in range(self.peers)])
        self.data: Dict[str, Dict[str, List[tuple]]] = {}
        self._range_columns: Dict[str, Dict[str, List[str]]] = {}
        for index, assignment in enumerate(self.assignments):
            network.add_peer(assignment.peer_id, tables=assignment.tables)
            data = self._timed(
                "generate_s", lambda: partitioner.generate_for(assignment, index)
            )
            # "we also build a range index on the nation key column of each
            # table" (6.2.2), so a query reaches only the nation's peer.
            range_columns = {
                table: [NATION_KEY_COLUMNS[table]]
                for table in assignment.tables
                if table not in COMMON_TABLES
            }
            self._timed(
                "load_peer_s", lambda: network.load_peer(
                    assignment.peer_id, data, range_columns=range_columns
                )
            )
            self.data[assignment.peer_id] = data
            self._range_columns[assignment.peer_id] = range_columns
        full = network.create_full_access_role("throughput")
        network.create_user("tester", self.assignments[0].peer_id, full)
        auditor = full.plus(
            rule("lineitem.l_discount", (READ,), AUDITOR_DISCOUNT_RANGE), "auditor"
        ).plus(rule("partsupp.ps_supplycost", (READ,), AUDITOR_SUPPLYCOST_RANGE))
        network.define_role(auditor)
        network.create_user("auditor", self.assignments[0].peer_id, auditor)
        self.network = network
        self._by_role = {
            role: [a for a in self.assignments if a.role == role]
            for role in ("supplier", "retailer")
        }
        self._last_refreshed = self.assignments[0]
        self._oracle_cache: Dict[Tuple[str, bool], Tuple[tuple, ...]] = {}
        self._target_order = {
            role: self.order(len(peers), role) for role, peers in self._by_role.items()
        }
        self._refresh_targets = [
            (assignment, table)
            for assignment in self.assignments
            for table in assignment.tables
            if table not in COMMON_TABLES
        ]
        self._refresh_order = self.order(len(self._refresh_targets), "refresh")
        # Probe capacity in simulated time: one round's queries, run
        # directly; the front door's four workers serve 4 / mean per second.
        probe = [
            self.network.execute(op.sql, peer_id=op.peer_id, engine="basic", user=op.user)
            for op in self._query_ops(0)
        ]
        mean_service_s = sum(e.latency_s for e in probe) / len(probe)
        self.front_door = self.network.attach_serving()
        capacity_qps = self.front_door.config.workers / mean_service_s
        self.arrival_rate_qps = LOAD_FACTOR * capacity_qps
        # The front door returns tickets, not results: tap its executor to
        # keep each request's QueryExecution for the result check.
        self._executions: Dict[int, object] = {}
        inner = self.front_door.executor

        def recording_executor(request):
            execution = inner(request)
            self._executions[id(request)] = execution
            return execution

        self.front_door.executor = recording_executor

    # -- seeded inputs ---------------------------------------------------
    def _query_op(self, user: str, target, requester) -> Op:
        make_sql = supplier_query if target.role == "supplier" else retailer_query
        return Op(
            "query",
            f"{target.role}/{user}",
            make_sql(target.nation_key),
            "basic",
            user,
            requester.peer_id,
            expected_rows=self._oracle_rows(target, masked=(user == "auditor")),
        )

    def _oracle_rows(self, target, masked: bool) -> Tuple[tuple, ...]:
        """The right answer for ``target``'s nation, from the bench's own
        copy of that peer's rows (recomputed after a refresh)."""
        key = (target.peer_id, masked)
        rows = self._oracle_cache.get(key)
        if rows is None:
            oracle = supplier_oracle if target.role == "supplier" else retailer_oracle
            rows = tuple(oracle(self.data[target.peer_id], masked))
            self._oracle_cache[key] = rows
        return rows

    def _query_ops(self, index: int) -> List[Op]:
        """Half of each user's queries go to supplier data, half to
        retailer data; within a role the target nations take turns in a
        seeded order, and the requester is a peer of the other role."""
        ops = []
        for user, count in (("tester", TESTER_QUERIES), ("auditor", AUDITOR_QUERIES)):
            for role, other in (("supplier", "retailer"), ("retailer", "supplier")):
                targets, requesters = self._by_role[role], self._by_role[other]
                order = self._target_order[role]
                for k in range(count // 2):
                    turn = index * (count // 2) + k
                    ops.append(self._query_op(
                        user,
                        targets[order[turn % len(order)]],
                        requesters[turn % len(requesters)],
                    ))
        self.rng("arrival order", index).shuffle(ops)
        # The first read targets whichever peer the previous round
        # refreshed: it must see the new snapshot.
        refreshed = self._last_refreshed
        swap = next(i for i, op in enumerate(ops)
                    if op.user == "tester" and op.label.startswith(refreshed.role))
        ops[swap] = self._query_op("tester", refreshed, self._by_role[
            "retailer" if refreshed.role == "supplier" else "supplier"][0])
        ops[0], ops[swap] = ops[swap], ops[0]
        return ops

    def _refresh_op(self, index: int) -> Op:
        """(peer, table) pairs take turns in a seeded order."""
        target, table = self._refresh_targets[
            self._refresh_order[index % len(self._refresh_order)]
        ]
        rows, changes = mutate_rows(
            self.data[target.peer_id][table], table, self.rng("refresh", index), index
        )
        return Op(
            "refresh", f"refresh/{table}", peer_id=target.peer_id,
            table=table, rows=tuple(rows), expected_changes=changes,
        )

    def round_ops(self, index: int) -> List[Op]:
        """Queries then one refresh.

        Unlike the other workloads this depends on the rounds run before
        it: each refresh edits the snapshot the previous one left.
        """
        return self._query_ops(index) + [self._refresh_op(index)]

    # -- running ---------------------------------------------------------
    def run_round(self, index: int, cross_check: bool = False) -> RoundResult:
        """Open loop in simulated time, then the refresh; the wall clock
        times the submit-and-drain block and the refresh call."""
        *queries, refresh = self.round_ops(index)
        result = self._serve(queries, index)
        self._refresh(refresh, result)
        return result

    def _serve(self, queries: Sequence[Op], index: int) -> RoundResult:
        """Queries enter the front door at Poisson arrival times (simulated
        clock) at ``LOAD_FACTOR`` of probed capacity, then it is drained."""
        rng = self.rng("arrivals", index)
        door = self.front_door
        due = door.now
        requests = []
        for op in queries:
            due += rng.expovariate(self.arrival_rate_qps)
            requests.append(
                (ServingRequest(tenant=op.user, sql=op.sql, engine=op.engine,
                                user=op.user, peer_id=op.peer_id), due)
            )
        self._executions.clear()
        start = time.perf_counter()
        tickets = [door.submit(request, now=due) for request, due in requests]
        door.drain()
        result = RoundResult(wall_s=time.perf_counter() - start)

        for op, (request, _), ticket in zip(queries, requests, tickets):
            execution = self._executions.get(id(request))
            if not ticket.admitted:
                result.shed += 1
                outcome = Outcome(op, error=f"shed: {ticket.reason}")
            elif execution is None:
                outcome = Outcome(op, error="admitted but never completed")
            else:
                outcome = self._outcome(op, execution)
                self.check(outcome)
            result.outcomes.append(outcome)
        return result

    def _refresh(self, refresh: Op, result: RoundResult) -> None:
        start = time.perf_counter()
        try:
            delta = self.network.refresh_peer(
                refresh.peer_id, refresh.table, list(refresh.rows),
                range_columns=self._range_columns[refresh.peer_id],
            )
        except ReproError as error:
            result.wall_s += time.perf_counter() - start
            result.outcomes.append(
                Outcome(refresh, error=f"{type(error).__name__}: {error}")
            )
            return
        result.wall_s += time.perf_counter() - start
        outcome = Outcome(refresh, changed_rows=delta.change_count)
        if delta.change_count != refresh.expected_changes:
            outcome.error = (
                f"refresh of {refresh.table} changed {delta.change_count} rows, "
                f"generator changed {refresh.expected_changes}"
            )
        result.outcomes.append(outcome)
        # The bench's own copy follows the snapshot, so the next rounds'
        # oracle answers (and the next refresh script) start from it.
        self.data[refresh.peer_id][refresh.table] = list(refresh.rows)
        self._oracle_cache.pop((refresh.peer_id, False), None)
        self._oracle_cache.pop((refresh.peer_id, True), None)
        self._last_refreshed = next(
            a for a in self.assignments if a.peer_id == refresh.peer_id
        )


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (JoinFetch, ScanPushdown, ShuffleEngines, SupplyChainMixed)
}
