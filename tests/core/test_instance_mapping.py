"""Tests for instance-level schema matching."""

import pytest

from repro.core.instance_mapping import InstanceMatcher
from repro.errors import SchemaMappingError
from repro.sqlengine import Column, ColumnType, TableSchema


def schemas():
    return {
        "customer": TableSchema(
            "customer",
            [
                Column("c_custkey", ColumnType.INTEGER),
                Column("c_name", ColumnType.TEXT),
                Column("c_acctbal", ColumnType.FLOAT),
            ],
        ),
        "supplier": TableSchema(
            "supplier",
            [
                Column("s_suppkey", ColumnType.INTEGER),
                Column("s_name", ColumnType.TEXT),
            ],
        ),
    }


def customer_sample():
    return [
        (i, f"Customer#{i:04d}", round(100.0 + i * 3.5, 2)) for i in range(60)
    ]


def supplier_sample():
    return [(1000 + i, f"Supplier#{i:04d}") for i in range(30)]


@pytest.fixture
def matcher():
    m = InstanceMatcher(schemas())
    m.register_global_sample("customer", customer_sample())
    m.register_global_sample("supplier", supplier_sample())
    return m


class TestMatching:
    def test_matches_identical_data(self, matcher):
        # A local table with unhelpful column names but overlapping values.
        rows = [(i, f"Customer#{i:04d}", 100.0 + i * 3.5) for i in range(40)]
        result = matcher.match("kunden", ["knr", "kname", "saldo"], rows)
        assert result.global_table == "customer"
        assert result.mapping.column_map["knr"] == "c_custkey"
        assert result.mapping.column_map["kname"] == "c_name"
        assert result.mapping.column_map["saldo"] == "c_acctbal"
        assert result.confidence > 0.3

    def test_picks_right_table_automatically(self, matcher):
        rows = [(1000 + i, f"Supplier#{i:04d}") for i in range(20)]
        result = matcher.match("lieferanten", ["lnr", "lname"], rows)
        assert result.global_table == "supplier"

    def test_explicit_table_restricts_search(self, matcher):
        rows = [(i, f"Customer#{i:04d}", 50.0) for i in range(20)]
        result = matcher.match(
            "kunden", ["a", "b", "c"], rows, global_table="customer"
        )
        assert result.global_table == "customer"

    def test_numeric_range_overlap_matches_without_exact_values(self, matcher):
        # Different keys but same numeric range for the balance column.
        rows = [
            (10**6 + i, f"Other#{i}", 120.0 + i * 3.5) for i in range(40)
        ]
        result = matcher.match(
            "konten", ["id", "label", "balance"], rows, global_table="customer"
        )
        assert result.mapping.column_map.get("balance") == "c_acctbal"

    def test_incompatible_kinds_never_match(self, matcher):
        rows = [("textual", "x") for _ in range(10)]
        result = matcher.match(
            "weird", ["t1", "t2"], rows, global_table="customer"
        )
        assert "t1" not in result.mapping.column_map or (
            result.mapping.column_map["t1"] != "c_custkey"
        )

    def test_unmatched_columns_reported(self, matcher):
        rows = [(i, "zzz-unrelated-value") for i in range(10)]
        result = matcher.match(
            "partial", ["id", "junk"], rows, global_table="customer"
        )
        assert "junk" in result.unmatched_local or "junk" in result.mapping.column_map

    def test_one_to_one_assignment(self, matcher):
        # Two identical local columns cannot both map to the same global one.
        rows = [(i, i, f"Customer#{i:04d}") for i in range(30)]
        result = matcher.match(
            "dup", ["id1", "id2", "name"], rows, global_table="customer"
        )
        targets = list(result.mapping.column_map.values())
        assert len(targets) == len(set(targets))

    def test_inferred_mapping_usable_by_loader(self, matcher):
        from repro.core.schema_mapping import SchemaMapping

        rows = [(i, f"Customer#{i:04d}", 100.0 + i * 3.5) for i in range(40)]
        result = matcher.match("kunden", ["knr", "kname", "saldo"], rows)
        mapping = SchemaMapping(schemas())
        mapping.add_table_mapping(result.mapping)
        table, transformed = mapping.transform(
            "kunden", ["knr", "kname", "saldo"], [(7, "ACME", 50.0)]
        )
        assert table == "customer"
        assert transformed.rows == [(7, "ACME", 50.0)]


class TestValidation:
    def test_no_samples_registered(self):
        with pytest.raises(SchemaMappingError):
            InstanceMatcher(schemas()).match("t", ["a"], [(1,)])

    def test_unknown_global_table(self, matcher):
        with pytest.raises(SchemaMappingError):
            matcher.register_global_sample("widgets", [])
        with pytest.raises(SchemaMappingError):
            matcher.match("t", ["a"], [(1,)], global_table="widgets")

    def test_invalid_min_score(self):
        with pytest.raises(SchemaMappingError):
            InstanceMatcher(schemas(), min_score=1.5)
