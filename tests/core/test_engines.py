"""End-to-end tests for the BestPeer++ query engines.

Correctness oracle: a single local database holding the union of all peers'
partitions must agree with every engine on every benchmark query.
"""

import sys

import pytest

from repro.core import BestPeerNetwork
from repro.core.costmodel import CostParams
from repro.errors import BestPeerError, SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.plan.sms import SmsPlanner
from repro.sqlengine import Database, MemTable, Table, parser, vexecutor
from repro.sqlengine.expr import RowLayout
from repro.sqlengine.planner import Planner
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

NUM_PEERS = 4


@pytest.fixture(scope="module")
def network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=11)
    for index in range(NUM_PEERS):
        peer_id = f"corp-{index}"
        net.add_peer(peer_id)
        net.load_peer(peer_id, generator.generate_peer(index))
    role = net.create_full_access_role()
    net.create_user("bench", "corp-0", role)
    return net


@pytest.fixture(scope="module")
def oracle():
    db = Database()
    create_tpch_tables(db)
    generator = TpchGenerator(seed=11)
    for index in range(NUM_PEERS):
        for table, rows in generator.generate_peer(index).items():
            if table in ("nation", "region") and index > 0:
                continue
            db.table(table).insert_many(rows)
    return db


def _sorted(rows):
    return sorted(rows, key=repr)


ENGINES = ["basic", "parallel", "mapreduce"]


class TestCorrectnessAcrossEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_q1(self, network, oracle, engine):
        execution = network.execute(Q1(), engine=engine)
        expected = oracle.execute(Q1())
        assert _sorted(execution.records) == _sorted(expected.rows)
        assert len(execution.records) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q2(self, network, oracle, engine):
        execution = network.execute(Q2(), engine=engine)
        assert execution.scalar() == pytest.approx(oracle.execute(Q2()).scalar())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q3(self, network, oracle, engine):
        execution = network.execute(Q3(), engine=engine)
        expected = oracle.execute(Q3())
        assert _sorted(execution.records) == _sorted(expected.rows)
        assert len(execution.records) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q4(self, network, oracle, engine):
        execution = network.execute(Q4(), engine=engine)
        expected = oracle.execute(Q4())
        assert {row[0]: row[1] for row in execution.records} == pytest.approx(
            {row[0]: row[1] for row in expected.rows}
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q5(self, network, oracle, engine):
        execution = network.execute(Q5(), engine=engine)
        expected = oracle.execute(Q5())
        assert len(execution.records) == len(expected.rows)
        for got, want in zip(execution.records, expected.rows):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1])

    def test_adaptive_matches_oracle_on_q5(self, network, oracle):
        execution = network.execute(Q5(), engine="adaptive")
        expected = oracle.execute(Q5())
        assert len(execution.records) == len(expected.rows)
        for got, want in zip(execution.records, expected.rows):
            assert got[1] == pytest.approx(want[1])


class TestEngineBehaviour:
    def test_q1_uses_fetch_and_process(self, network):
        execution = network.execute(Q1(), engine="basic")
        assert execution.strategy == "fetch-and-process"
        assert execution.peers_contacted == NUM_PEERS

    def test_access_control_masks_fetched_data(self, network, oracle):
        from repro.core import Role, rule, READ

        limited = Role(
            "narrow",
            [
                rule("lineitem.l_orderkey", [READ]),
                rule("lineitem.l_partkey", [READ]),
                rule("lineitem.l_suppkey", [READ]),
                rule("lineitem.l_linenumber", [READ]),
                # l_quantity readable only in [0, 10].
                rule("lineitem.l_quantity", [READ], (0.0, 10.0)),
                rule("lineitem.l_shipdate", [READ]),
                rule("lineitem.l_commitdate", [READ]),
            ],
        )
        network.create_user("restricted", "corp-0", limited)
        execution = network.execute(Q1(), engine="basic", user="restricted")
        quantities = execution.column("l_quantity")
        assert all(q is None or q <= 10.0 for q in quantities)
        assert any(q is None for q in quantities)  # something was masked

    def test_aggregates_respect_value_range_masking(self, network, oracle):
        """A restricted user's SUM must skip out-of-range (masked) values —
        the partial-aggregate pushdown may not bypass access control."""
        from repro.core import Role, rule, READ

        capped = Role(
            "capped",
            [rule("lineitem.l_quantity", [READ], (0.0, 25.0))],
        )
        network.create_user("capped_user", "corp-0", capped)
        sql = "SELECT SUM(l_quantity) FROM lineitem"
        execution = network.execute(sql, engine="basic", user="capped_user")
        expected = oracle.execute(
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity <= 25.0"
        ).scalar()
        assert execution.scalar() == pytest.approx(expected)
        # The unrestricted benchmark user still gets the full sum (and the
        # fast pushdown path).
        full = network.execute(sql, engine="basic", user="bench")
        assert full.scalar() == pytest.approx(oracle.execute(sql).scalar())
        assert full.scalar() > execution.scalar()

    def test_mapreduce_engine_pays_startup(self, network):
        execution = network.execute(Q1(), engine="mapreduce")
        assert execution.latency_s >= network.mr_config.job_startup_s

    def test_basic_engine_much_faster_than_mr_on_q1(self, network):
        basic = network.execute(Q1(), engine="basic")
        mapreduce = network.execute(Q1(), engine="mapreduce")
        assert basic.latency_s < mapreduce.latency_s / 3

    def test_bloom_join_used_on_q3(self, network):
        execution = network.execute(Q3(), engine="basic")
        assert execution.bloom_joins == 1

    def test_bloom_join_reduces_bytes(self):
        generator = TpchGenerator(seed=11)

        def run(bloom_enabled):
            from repro.core import BestPeerConfig

            config = BestPeerConfig(bloom_join_enabled=bloom_enabled)
            net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES, config=config)
            for index in range(2):
                net.add_peer(f"p{index}")
                net.load_peer(f"p{index}", generator.generate_peer(index))
            # Highly selective on orders -> few join keys -> bloom prunes
            # most lineitem rows at the source.
            sql = (
                "SELECT o_orderkey, l_extendedprice FROM orders, lineitem "
                "WHERE o_orderkey = l_orderkey "
                "AND o_orderdate > DATE '1998-06-01'"
            )
            execution = net.execute(sql, engine="basic")
            return execution

        with_bloom = run(True)
        without_bloom = run(False)
        assert _sorted(with_bloom.records) == _sorted(without_bloom.records)
        assert with_bloom.bytes_transferred < without_bloom.bytes_transferred / 2

    def test_dollar_cost_positive(self, network):
        execution = network.execute(Q2(), engine="basic")
        assert execution.dollar_cost > 0

    def test_unknown_engine_rejected(self, network):
        with pytest.raises(BestPeerError):
            network.execute(Q1(), engine="quantum")

    def test_clock_advances_with_queries(self, network):
        before = network.clock.now
        network.execute(Q1(), engine="basic")
        assert network.clock.now > before


class TestSelfJoin:
    """Two bindings of one table are two partitions at the query peer: each
    reads its own rows and its own pruned columns."""

    NATION = [(0, "FRANCE", 1), (2, "GERMANY", 1), (1, "CHINA", 2), (3, "JAPAN", 2)]
    QUERIES = {
        "same_columns": (
            "SELECT n1.n_name, n2.n_name FROM nation n1, nation n2 "
            "WHERE n1.n_regionkey = n2.n_regionkey "
            "AND n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY'"
        ),
        "other_columns": (
            "SELECT n1.n_name, n2.n_nationkey FROM nation n1, nation n2 "
            "WHERE n1.n_nationkey = n2.n_regionkey AND n2.n_name = 'GERMANY'"
        ),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("engine", ENGINES + ["adaptive"])
    def test_matches_the_local_database(self, engine, name):
        schema = TPCH_SCHEMAS["nation"]
        rows = [row + (f"comment {row[0]}",) for row in self.NATION]
        net = BestPeerNetwork({"nation": schema})
        for index in range(2):  # two owners: the query is fetched and processed
            net.add_peer(f"p{index}")
            net.load_peer(f"p{index}", {"nation": rows[index::2]})
        oracle = Database()
        oracle.create_table(schema).insert_many(rows)
        sql = self.QUERIES[name]
        expected = oracle.execute(sql).rows
        assert len(expected) == 1
        assert net.execute(sql, engine=engine).records == expected


class TestSinglePeerOptimization:
    def test_whole_query_shipped_to_single_owner(self):
        net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
        generator = TpchGenerator(seed=5)
        # Only supplier-0 hosts part/partsupp; corp-1 hosts the rest.
        net.add_peer("supplier-0", tables=["part", "partsupp", "supplier"])
        net.add_peer("corp-1", tables=["lineitem", "orders", "customer"])
        data = generator.generate_peer(0)
        net.load_peer(
            "supplier-0",
            {t: data[t] for t in ("part", "partsupp", "supplier")},
        )
        net.load_peer(
            "corp-1", {t: data[t] for t in ("lineitem", "orders", "customer")}
        )
        execution = net.execute(Q4(), peer_id="corp-1", engine="basic")
        assert execution.strategy == "single-peer"
        assert execution.peers_contacted == 1
        assert len(execution.records) > 0


class TestAdaptiveDecision:
    def test_decision_recorded(self, network):
        network.execute(Q5(), engine="adaptive")
        adaptive = network._adaptive[sorted(network.peers)[0]]
        decision = adaptive.last_decision
        assert decision is not None
        assert decision.chosen_engine in ("p2p", "mapreduce")
        assert len(decision.levels) == 4  # 3 joins + groupby level

    def test_simple_query_always_p2p(self, network):
        execution = network.execute(Q1(), engine="adaptive")
        assert execution.strategy in ("fetch-and-process", "single-peer")


_NO_ORDER = "l_orderkey = o_orderkey AND o_totalprice < -5"
_EMPTY_SCALAR = {
    "count_star_join": (
        f"SELECT COUNT(*) FROM lineitem, orders WHERE {_NO_ORDER}"
    ),
    "count_distinct": (
        "SELECT COUNT(DISTINCT l_suppkey) FROM lineitem WHERE l_quantity < -1"
    ),
    "count_and_count_distinct": (
        "SELECT COUNT(*), COUNT(DISTINCT l_suppkey) FROM lineitem "
        "WHERE l_quantity < -1"
    ),
    "max_expr_join": (
        "SELECT MAX(l_extendedprice * (1 - l_discount)) "
        f"FROM lineitem, orders WHERE {_NO_ORDER}"
    ),
    "sum_count_join": (
        "SELECT SUM(l_quantity), COUNT(*) "
        f"FROM lineitem, orders WHERE {_NO_ORDER}"
    ),
    "having_drops_the_row": (
        "SELECT SUM(l_quantity), COUNT(*) "
        f"FROM lineitem, orders WHERE {_NO_ORDER} HAVING COUNT(*) > 0"
    ),
    "grouped": (
        "SELECT l_suppkey, COUNT(*) "
        f"FROM lineitem, orders WHERE {_NO_ORDER} GROUP BY l_suppkey"
    ),
}


class TestScalarAggregateOverNothing:
    """SQL: a scalar aggregate over zero qualifying rows is still one row
    (COUNT = 0, the rest NULL), then HAVING; a grouped one has no row.  The
    rule lives once, in ``repro.plan.driver``; the MapReduce job shapes used
    to skip it because no reducer runs without map output."""

    @pytest.fixture(scope="class")
    def systems(self):
        # Priced so that Algorithm 2 sends every join to its MapReduce arm.
        net = BestPeerNetwork(
            TPCH_SCHEMAS,
            SECONDARY_INDICES,
            cost_params=CostParams(beta_bp=1.0, phi=0.0),
        )
        cluster = HadoopDbCluster(3)
        cluster.create_tables(TPCH_SCHEMAS.values(), SECONDARY_INDICES)
        oracle = Database()
        create_tpch_tables(oracle)
        generator = TpchGenerator(seed=11)
        for index in range(3):
            data = generator.generate_peer(index)
            net.add_peer(f"corp-{index}")
            net.load_peer(f"corp-{index}", data)
            cluster.load_worker(index, data)
            for table, rows in data.items():
                if table not in ("nation", "region") or index == 0:
                    oracle.table(table).insert_many(rows)
        run = {
            engine: lambda sql, engine=engine: net.execute(sql, engine=engine)
            for engine in ENGINES
        }

        def adaptive(sql):
            # A fresh calibrator: feedback from earlier runs flips the choice.
            net._adaptive.clear()
            return net.execute(sql, engine="adaptive")

        run["adaptive"] = adaptive
        run["hadoopdb"] = cluster.execute
        return run, oracle

    @pytest.mark.parametrize("name", sorted(_EMPTY_SCALAR))
    @pytest.mark.parametrize("system", ENGINES + ["adaptive", "hadoopdb"])
    def test_matches_the_local_database(self, systems, system, name):
        run, oracle = systems
        sql = _EMPTY_SCALAR[name]
        expected = list(oracle.execute(sql).rows)
        assert len(expected) == (
            0 if name in ("having_drops_the_row", "grouped") else 1
        )
        result = run[system](sql)
        assert result.records == expected
        if system == "adaptive" and "FROM lineitem, orders" in sql:
            assert result.strategy == "mapreduce"


# ----------------------------------------------------------------------
# A SQL text is planned once: the compile door and the owners' plan caches
# ----------------------------------------------------------------------
class TestDateThatIsNoCalendarDay:
    """``ColumnType.DATE`` checks the pattern only, so '1998-02-30' is a
    legal literal and a storable value; the histogram has no ordinal for it."""

    SQL = "SELECT l_orderkey FROM lineitem WHERE l_shipdate > '1998-02-30'"

    @pytest.fixture
    def two_peers(self):
        net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
        generator = TpchGenerator(seed=11, scale=0.2)
        for index in range(2):
            net.add_peer(f"corp-{index}")
            net.load_peer(f"corp-{index}", generator.generate_peer(index))
        net.create_user("bench", "corp-0", net.create_full_access_role())
        return net

    def test_adaptive_estimates_without_a_region(self, two_peers):
        two_peers.build_histogram("lineitem", ["l_shipdate"])
        basic = two_peers.execute(self.SQL, engine="basic").records
        assert len(basic) > 0
        # The parent raised a raw "ValueError: day is out of range for month".
        adaptive = two_peers.execute(self.SQL, engine="adaptive").records
        assert _sorted(adaptive) == _sorted(basic)

    def test_build_histogram_skips_a_stored_one(self, two_peers):
        lineitem = two_peers.peers["corp-0"].database.table("lineitem")
        before = two_peers.build_histogram("lineitem", ["l_shipdate"]).relation_size()
        row = list(next(lineitem.rows()))
        row[lineitem.schema.column_index("l_orderkey")] = 10**9
        row[lineitem.schema.column_index("l_shipdate")] = "1998-02-30"
        lineitem.insert(row)
        histogram = two_peers.build_histogram("lineitem", ["l_shipdate"])
        assert histogram.relation_size() == before
        assert two_peers.statistics["lineitem"].histogram is histogram


def _count_parses(monkeypatch):
    """Count ``parse`` calls through every ``repro`` module binding it."""
    calls = []

    def counting(sql):
        calls.append(sql)
        return parser.parse(sql)

    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repro"):
            for attr, value in list(vars(module).items()):
                if value is parser.parse and module is not parser:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _count_plans(monkeypatch):
    """Record the catalogue of every ``Planner.plan`` call."""
    catalogs = []
    original = Planner.plan

    def counting(self, stmt):
        catalogs.append(self._catalog)
        return original(self, stmt)

    monkeypatch.setattr(Planner, "plan", counting)
    return catalogs


def _count_calls(monkeypatch, targets):
    """Record the name of every call to each ``(namespace, name)`` target."""
    calls = []
    for target, name in targets:

        def counting(*args, _original=getattr(target, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(target, name, counting)
    return calls


def _count_lowerings(monkeypatch):
    """Record every layout and vector kernel the executor lowers."""
    return _count_calls(
        monkeypatch,
        [
            (vexecutor, "compile_vector_filter"),
            (vexecutor, "compile_vector_evaluator"),
            (RowLayout, "__init__"),
        ],
    )


def _count_constructions(monkeypatch):
    """Record every Database, Table and MemTable built."""
    return _count_calls(
        monkeypatch,
        [(Database, "__init__"), (Table, "__init__"), (MemTable, "__init__")],
    )


class TestPlannedOnce:
    @pytest.fixture
    def two_owner_network(self):
        """supplier-0 alone hosts part/partsupp/supplier (Q4 is a single-peer
        query); lineitem and orders are spread over two peers (Q3 is
        fetch-and-process)."""
        net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
        generator = TpchGenerator(seed=5, scale=0.2)
        net.add_peer("supplier-0", tables=["part", "partsupp", "supplier"])
        data = generator.generate_peer(0)
        net.load_peer(
            "supplier-0",
            {t: data[t] for t in ("part", "partsupp", "supplier")},
        )
        for index in (1, 2):
            net.add_peer(f"corp-{index}", tables=["lineitem", "orders"])
            data = generator.generate_peer(index)
            net.load_peer(
                f"corp-{index}", {t: data[t] for t in ("lineitem", "orders")}
            )
        return net

    @pytest.mark.parametrize("engine", ENGINES + ["adaptive"])
    @pytest.mark.parametrize("query", [Q4, Q3], ids=["single-peer", "fetch"])
    def test_second_execution_parses_and_plans_nothing(
        self, two_owner_network, monkeypatch, engine, query
    ):
        net = two_owner_network
        sql = query("1995-06-01", "1995-06-01") if query is Q3 else query()
        first = net.execute(sql, peer_id="corp-1", engine=engine)
        assert len(first.records) > 0
        if engine == "adaptive":
            # Feedback may flip its choice: let the owners see both
            # engines' subquery texts before counting.
            for chosen in ("basic", "mapreduce"):
                net.execute(sql, peer_id="corp-1", engine=chosen)
        parses = _count_parses(monkeypatch)
        catalogs = _count_plans(monkeypatch)
        lowered = _count_lowerings(monkeypatch)
        built = _count_constructions(monkeypatch)
        second = net.execute(sql, peer_id="corp-1", engine=engine)
        assert sorted(second.records) == sorted(first.records)
        # Not the owners' plans, and not the basic engine's final plan over
        # the fetched partitions either: that rides on the compiled text,
        # lowered kernels and all (the other engines lower their stages per run).
        assert parses == catalogs == []
        assert lowered == [] or engine != "basic"
        assert built == []  # no staging Database, Table or MemTable

    def test_the_final_plan_is_made_once_per_text(self, two_owner_network):
        sql = Q3("1995-06-01", "1995-06-01")
        first = two_owner_network.execute(sql, peer_id="corp-1", engine="basic")
        assert first.strategy == "fetch-and-process"
        _, plan = two_owner_network.planner.compile_text(sql)
        schemas, processing = plan.processing
        two_owner_network.execute(sql, peer_id="corp-2", engine="basic")
        assert plan.processing[1] is processing
        assert [schema.name for schema in schemas] == ["orders", "lineitem"]
        assert all(column.nullable for s in schemas for column in s.columns)

    def test_adaptive_compiles_a_new_text_once(self, two_owner_network, monkeypatch):
        parses = _count_parses(monkeypatch)
        compiled = []
        original = SmsPlanner.compile

        def counting(self, stmt):
            compiled.append(stmt)
            return original(self, stmt)

        monkeypatch.setattr(SmsPlanner, "compile", counting)
        sql = Q3("1995-06-01", "1995-06-01")
        two_owner_network.execute(sql, peer_id="corp-1", engine="adaptive")
        assert parses.count(sql) == 1  # twice at the parent
        assert len(compiled) == 1

    def test_prepare_shares_the_plan_cache(self):
        db = Database()
        create_tpch_tables(db)
        sql = "SELECT o_orderkey FROM orders WHERE o_orderkey > 3"
        first = db.prepare(sql)
        assert (db.plan_cache_hits, db.plan_cache_misses) == (0, 1)
        assert db.prepare(sql).plan is first.plan
        assert (db.plan_cache_hits, db.plan_cache_misses) == (1, 1)
        # ... the cache execute() uses, in both directions.
        db.execute(sql)
        assert (db.plan_cache_hits, db.plan_cache_misses) == (2, 1)
        db.table("orders").insert_many(
            TpchGenerator(seed=5, scale=0.1).generate_peer(0)["orders"]
        )
        assert db.prepare(sql).plan is not first.plan
        assert (db.plan_cache_hits, db.plan_cache_misses) == (2, 2)

    def test_prepare_refuses_a_cached_subquery_plan(self):
        db = Database()
        create_tpch_tables(db)
        sql = (
            "SELECT o_orderkey FROM orders WHERE o_custkey IN "
            "(SELECT c_custkey FROM customer)"
        )
        db.execute(sql)
        db.execute(sql)
        assert db.plan_cache_hits == 1  # the resolved plan is cached ...
        with pytest.raises(SqlExecutionError, match="subqueries"):
            db.prepare(sql)  # ... but inlines local rows: never handed out
        assert db.plan_cache_hits == 1
