"""The §4.4 pushdown gate shared by every path that bypasses row rewriting.

The single-peer optimization, the MapReduce engine's map-side reads and
online aggregation's partial sums all move rows without going through
``execute_fetch``'s access rewriting — each must refuse (or step aside)
unless the user's role provably could not have masked anything.
"""

import pytest

from repro.core import READ, BestPeerNetwork, Role, rule
from repro.core.online_aggregation import online_aggregate
from repro.errors import AccessControlError
from repro.tpch import SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator

LINEITEM_SQL = "SELECT l_orderkey, l_quantity FROM lineitem"


@pytest.fixture(scope="module")
def net():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=5)
    # Only corp-1 hosts lineitem: lineitem queries qualify for the
    # single-peer optimization.
    net.add_peer("supplier-0", tables=["part", "partsupp", "supplier"])
    net.add_peer("corp-1", tables=["lineitem", "orders", "customer"])
    data = generator.generate_peer(0)
    net.load_peer(
        "supplier-0", {t: data[t] for t in ("part", "partsupp", "supplier")}
    )
    net.load_peer(
        "corp-1", {t: data[t] for t in ("lineitem", "orders", "customer")}
    )
    net.create_user("bench", "corp-1", net.create_full_access_role())
    limited = Role(
        "limited",
        [
            rule("lineitem.l_orderkey", [READ]),
            # Quantities only visible in [0, 10]: masking CAN apply.
            rule("lineitem.l_quantity", [READ], (0.0, 10.0)),
        ],
    )
    net.create_user("restricted", "corp-1", limited)
    return net


class TestSinglePeerGate:
    def test_unrestricted_user_keeps_the_shortcut(self, net):
        execution = net.execute(LINEITEM_SQL, engine="basic", user="bench")
        assert execution.strategy == "single-peer"

    def test_no_user_keeps_the_shortcut(self, net):
        execution = net.execute(LINEITEM_SQL, engine="basic")
        assert execution.strategy == "single-peer"

    def test_restricted_user_falls_back_to_the_masking_path(self, net):
        execution = net.execute(
            LINEITEM_SQL, engine="basic", user="restricted"
        )
        assert execution.strategy != "single-peer"
        quantities = execution.column("l_quantity")
        assert all(q is None or q <= 10.0 for q in quantities)
        assert any(q is None for q in quantities)  # something was masked

    def test_fallback_loses_no_rows(self, net):
        full = net.execute(LINEITEM_SQL, engine="basic", user="bench")
        masked = net.execute(LINEITEM_SQL, engine="basic", user="restricted")
        assert len(masked.records) == len(full.records)


class TestMapReduceGate:
    def test_unrestricted_user_runs(self, net):
        execution = net.execute(LINEITEM_SQL, engine="mapreduce", user="bench")
        assert execution.strategy == "mapreduce"
        assert len(execution.records) > 0

    def test_restricted_user_is_refused(self, net):
        # Map tasks read raw fragments; there is no masking fallback, so
        # the job must not run at all for a restricted role.
        with pytest.raises(AccessControlError):
            net.execute(LINEITEM_SQL, engine="mapreduce", user="restricted")


class TestOnlineAggregationGate:
    SQL = "SELECT SUM(l_quantity) FROM lineitem"

    def test_unrestricted_user_runs_to_completion(self, net):
        estimates = list(online_aggregate(net, self.SQL, user="bench"))
        assert estimates[-1].is_final

    def test_restricted_user_is_refused(self, net):
        # Partial sums are derived values no rule can rewrite.
        with pytest.raises(AccessControlError):
            list(online_aggregate(net, self.SQL, user="restricted"))


class TestMaskingThroughStaging:
    """§4.4 marks out-of-range values as NULL; staging must hold them."""

    @pytest.fixture
    def two_tables(self):
        from repro.sqlengine import Column, ColumnType, TableSchema

        schemas = [
            TableSchema(
                "a",
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("v", ColumnType.FLOAT, nullable=False),
                ],
                primary_key="id",
            ),
            TableSchema(
                "b",
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("w", ColumnType.FLOAT),
                ],
                primary_key="id",
            ),
        ]
        net = BestPeerNetwork({schema.name: schema for schema in schemas})
        net.add_peer("p0", tables=["a"])
        net.add_peer("p1", tables=["b"])
        net.load_peer("p0", {"a": [(i, float(i)) for i in range(20)]})
        net.load_peer("p1", {"b": [(i, 10.0 * i) for i in range(20)]})
        narrow = Role(
            "narrow",
            [
                rule("a.id", [READ]),
                rule("a.v", [READ], (0.0, 5.0)),
                rule("b.id", [READ]),
                rule("b.w", [READ]),
            ],
        )
        net.create_user("auditor", "p0", narrow)
        return net

    def test_restricted_join_over_a_not_null_column_returns_masked_nulls(
        self, two_tables
    ):
        # The owner masks a.v to NULL outside [0, 5]; the global schema
        # says NOT NULL, which binds the owner's table, not the masked
        # copy the query peer stages.
        execution = two_tables.execute(
            "SELECT a.id, a.v, b.w FROM a, b WHERE a.id = b.id",
            engine="basic",
            user="auditor",
        )
        assert execution.strategy == "fetch-and-process"
        assert sorted(execution.records) == [
            (i, float(i) if i <= 5 else None, 10.0 * i) for i in range(20)
        ]

    def test_single_table_path_masks_the_same_values(self, two_tables):
        execution = two_tables.execute(
            "SELECT id, v FROM a", engine="basic", user="auditor"
        )
        assert sorted(execution.records) == [
            (i, float(i) if i <= 5 else None) for i in range(20)
        ]
