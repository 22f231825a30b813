"""Tests for distributed role-based access control."""

import pytest

from repro.core.access_control import (
    READ,
    WRITE,
    AccessController,
    AccessRule,
    Role,
    full_access_role,
    rule,
)
from repro.errors import AccessControlError
from repro.sqlengine import Column, ColumnBatch, ColumnType, TableSchema


def sales_role():
    """The paper's Role_sales example (§4.4)."""
    return Role(
        "sales",
        [
            rule("lineitem.l_extendedprice", [READ, WRITE], (0, 100)),
            rule("lineitem.l_shipdate", [READ]),
        ],
    )


class TestAccessRule:
    def test_unqualified_column_rejected(self):
        with pytest.raises(AccessControlError):
            rule("l_shipdate")

    def test_unknown_privilege_rejected(self):
        with pytest.raises(AccessControlError):
            AccessRule("t.c", frozenset({"execute"}))

    def test_empty_privileges_rejected(self):
        with pytest.raises(AccessControlError):
            AccessRule("t.c", frozenset())

    def test_range_check(self):
        r = rule("t.c", [READ], (0, 100))
        assert r.allows_value(50)
        assert r.allows_value(0)
        assert r.allows_value(100)
        assert not r.allows_value(101)
        assert r.allows_value(None)

    def test_null_range_allows_everything(self):
        assert rule("t.c", [READ]).allows_value(10**9)


class TestRoleOperators:
    def test_paper_example_privileges(self):
        role = sales_role()
        assert role.can_read("lineitem.l_shipdate")
        assert not role.can_write("lineitem.l_shipdate")
        assert role.can_write("lineitem.l_extendedprice")
        assert not role.can_read("lineitem.l_quantity")

    def test_inherit(self):
        derived = sales_role().inherit("junior_sales")
        assert derived.name == "junior_sales"
        assert derived.can_read("lineitem.l_shipdate")

    def test_plus_adds_rule(self):
        derived = sales_role().plus(rule("orders.o_totalprice", [READ]))
        assert derived.can_read("orders.o_totalprice")
        assert not sales_role().can_read("orders.o_totalprice")

    def test_plus_overrides_existing_rule(self):
        derived = sales_role().plus(rule("lineitem.l_shipdate", [READ, WRITE]))
        assert derived.can_write("lineitem.l_shipdate")

    def test_minus_removes_rule(self):
        derived = sales_role().minus("lineitem.l_shipdate")
        assert not derived.can_read("lineitem.l_shipdate")
        assert derived.can_read("lineitem.l_extendedprice")

    def test_minus_unknown_rule_rejected(self):
        with pytest.raises(AccessControlError):
            sales_role().minus("orders.o_orderkey")

    def test_nameless_role_rejected(self):
        with pytest.raises(AccessControlError):
            Role("")


class TestFullAccessRole:
    def test_grants_everything(self):
        schema = TableSchema(
            "t",
            [Column("a", ColumnType.INTEGER), Column("b", ColumnType.TEXT)],
        )
        role = full_access_role("R", [schema])
        assert role.can_read("t.a")
        assert role.can_write("t.b")


class TestAccessController:
    @pytest.fixture
    def controller(self):
        controller = AccessController()
        controller.assign("alice", sales_role())
        return controller

    def test_unknown_user_rejected(self, controller):
        with pytest.raises(AccessControlError):
            controller.role_of("mallory")

    def test_rewrite_masks_unreadable_columns(self, controller):
        columns = ["l_quantity", "l_shipdate"]
        masked = controller.rewrite_rows(
            "alice",
            "lineitem",
            columns,
            ColumnBatch.from_rows(columns, [(5.0, "1998-01-01")]),
        )
        assert masked.rows == [(None, "1998-01-01")]

    def test_rewrite_masks_out_of_range_values(self, controller):
        # The paper: "For extendedprice, only values in [0, 100] are shown,
        # the rest are marked as NULL."
        columns = ["l_extendedprice", "l_shipdate"]
        masked = controller.rewrite_rows(
            "alice",
            "lineitem",
            columns,
            ColumnBatch.from_rows(
                columns, [(50.0, "1998-01-01"), (250.0, "1998-02-02")]
            ),
        )
        assert masked.rows == [(50.0, "1998-01-01"), (None, "1998-02-02")]

    def test_rewrite_builds_new_vectors_and_shares_unrestricted_ones(
        self, controller
    ):
        # The vectors may be the owner table's live storage: masking must
        # never write into them, and an unrestricted column costs nothing.
        columns = ["l_quantity", "l_extendedprice", "l_shipdate"]
        vectors = [[5.0, 6.0], [50.0, 250.0], ["1998-01-01", "1998-02-02"]]
        batch = ColumnBatch(columns, vectors, 2)
        masked = controller.rewrite_rows("alice", "lineitem", columns, batch)
        assert vectors == [[5.0, 6.0], [50.0, 250.0], ["1998-01-01", "1998-02-02"]]
        assert batch.rows == [(5.0, 50.0, "1998-01-01"), (6.0, 250.0, "1998-02-02")]
        assert masked.vectors[:2] == [[None, None], [50.0, None]]
        assert masked.vectors[2] is vectors[2]

    def test_check_readable(self, controller):
        assert controller.check_readable(
            "alice", "lineitem", ["l_shipdate", "l_extendedprice"]
        )
        assert not controller.check_readable("alice", "lineitem", ["l_quantity"])

    def test_has_user(self, controller):
        assert controller.has_user("alice")
        assert not controller.has_user("bob")
