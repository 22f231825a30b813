"""Tests for the BATON-backed data indexer."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.baton import BatonOverlay, ReplicatedOverlay
from repro.core import BestPeerNetwork
from repro.core.indexer import DataIndexer, PartialIndexPolicy, PeerLookup
from repro.errors import BestPeerError
from repro.sqlengine import Column, ColumnType, TableSchema


@pytest.fixture
def overlay():
    replicated = ReplicatedOverlay(BatonOverlay())
    for i in range(8):
        replicated.join(f"peer-{i}")
    return replicated


@pytest.fixture
def indexer(overlay):
    return DataIndexer(overlay)


def publish_cluster(indexer):
    """Three peers host lineitem; two host orders; ranges on l_shipdate."""
    for peer, low, high in [
        ("peer-0", "1992-01-01", "1994-12-31"),
        ("peer-1", "1995-01-01", "1996-12-31"),
        ("peer-2", "1997-01-01", "1998-12-31"),
    ]:
        indexer.publish_table("lineitem", peer)
        indexer.publish_column("l_shipdate", peer, ["lineitem"])
        indexer.publish_range("lineitem", "l_shipdate", low, high, peer)
    for peer in ["peer-3", "peer-4"]:
        indexer.publish_table("orders", peer)
        indexer.publish_column("o_orderdate", peer, ["orders"])


class TestTableIndex:
    def test_publish_and_lookup(self, indexer):
        publish_cluster(indexer)
        peers, _, _ = indexer.peers_for_table("lineitem")
        assert peers == {"peer-0", "peer-1", "peer-2"}

    def test_missing_table_empty(self, indexer):
        peers, _, _ = indexer.peers_for_table("widgets")
        assert peers == set()

    def test_tables_are_separate_keys(self, indexer):
        publish_cluster(indexer)
        peers, _, _ = indexer.peers_for_table("orders")
        assert peers == {"peer-3", "peer-4"}


class TestColumnIndex:
    def test_lookup_by_column(self, indexer):
        publish_cluster(indexer)
        peers, _, _ = indexer.peers_for_column("l_shipdate")
        assert peers == {"peer-0", "peer-1", "peer-2"}

    def test_lookup_filtered_by_table(self, indexer):
        publish_cluster(indexer)
        indexer.publish_column("l_shipdate", "peer-5", ["other_table"])
        peers, _, _ = indexer.peers_for_column("l_shipdate", table="lineitem")
        assert "peer-5" not in peers


class TestRangeIndex:
    def test_range_lookup_prunes_peers(self, indexer):
        publish_cluster(indexer)
        lookup = indexer.locate("lineitem", "l_shipdate", low="1998-01-01")
        assert lookup.index_used == "range"
        assert lookup.peers == ["peer-2"]

    def test_range_overlap_includes_boundaries(self, indexer):
        publish_cluster(indexer)
        lookup = indexer.locate(
            "lineitem", "l_shipdate", low="1994-12-31", high="1995-01-01"
        )
        assert set(lookup.peers) == {"peer-0", "peer-1"}

    def test_inverted_bounds_rejected(self, indexer):
        with pytest.raises(BestPeerError):
            indexer.publish_range("t", "c", 10, 5, "peer-0")


class TestPriority:
    """Range > Column > Table (§4.3)."""

    def test_range_preferred_when_available(self, indexer):
        publish_cluster(indexer)
        lookup = indexer.locate("lineitem", "l_shipdate", low="1995-06-01")
        assert lookup.index_used == "range"

    def test_column_when_no_range_index(self, indexer):
        publish_cluster(indexer)
        lookup = indexer.locate("orders", "o_orderdate", low="1995-06-01")
        assert lookup.index_used == "column"
        assert set(lookup.peers) == {"peer-3", "peer-4"}

    def test_table_when_no_constraint(self, indexer):
        publish_cluster(indexer)
        lookup = indexer.locate("lineitem")
        assert lookup.index_used == "table"
        assert len(lookup.peers) == 3

    def test_table_fallback_for_unindexed_column(self, indexer):
        publish_cluster(indexer)
        lookup = indexer.locate("lineitem", "l_comment")
        assert lookup.index_used == "table"


class TestCache:
    def test_second_lookup_hits_cache(self, indexer):
        publish_cluster(indexer)
        first = indexer.locate("lineitem")
        second = indexer.locate("lineitem")
        assert not first.cache_hit
        assert second.cache_hit
        assert second.hops == 0

    def test_publish_invalidates_cache(self, indexer):
        publish_cluster(indexer)
        indexer.locate("lineitem")
        indexer.publish_table("lineitem", "peer-6")
        lookup = indexer.locate("lineitem")
        assert "peer-6" in lookup.peers

    def test_cache_disabled(self, overlay):
        indexer = DataIndexer(overlay, cache_enabled=False)
        publish_cluster(indexer)
        indexer.locate("lineitem")
        assert not indexer.locate("lineitem").cache_hit

    def test_clear_cache(self, indexer):
        publish_cluster(indexer)
        indexer.locate("lineitem")
        indexer.clear_cache()
        assert not indexer.locate("lineitem").cache_hit


class TestUnpublish:
    def test_departing_peer_entries_removed(self, indexer):
        publish_cluster(indexer)
        indexer.unpublish_all("peer-1")
        peers, _, _ = indexer.peers_for_table("lineitem")
        assert peers == {"peer-0", "peer-2"}
        lookup = indexer.locate("lineitem", "l_shipdate", low="1995-06-01",
                                high="1995-07-01")
        assert lookup.peers == []

    def test_other_peers_unaffected(self, indexer):
        publish_cluster(indexer)
        indexer.unpublish_all("peer-1")
        peers, _, _ = indexer.peers_for_table("orders")
        assert peers == {"peer-3", "peer-4"}


# ----------------------------------------------------------------------
# refresh_peer republishes by difference: same overlay as the old pair
# ----------------------------------------------------------------------
CENSUS_SCHEMAS = {
    "a": TableSchema(
        "a", [Column("id", ColumnType.INTEGER), Column("v", ColumnType.FLOAT)]
    ),
    "b": TableSchema(
        "b", [Column("id", ColumnType.INTEGER), Column("w", ColumnType.TEXT)]
    ),
}
CENSUS_RANGES = {"a": ["id", "v"], "b": ["id"]}
CENSUS_POLICIES = [
    None,
    PartialIndexPolicy(min_table_rows=4),
    PartialIndexPolicy(indexed_columns=frozenset({"id"})),
    PartialIndexPolicy(min_table_rows=3, indexed_columns=frozenset({"v", "w"})),
]
CENSUS_PEERS = ["p0", "p1", "p2"]


def _publish_as_the_parent_did(peer, indexer, range_columns):
    """The parent's ``NormalPeer.publish_indices`` loop, kept as the oracle
    (it ran after ``unpublish_all``, for every table of the peer)."""
    policy = indexer.policy
    for table_name in peer.database.table_names():
        table = peer.database.table(table_name)
        if len(table) == 0 or not policy.admits_table(len(table)):
            continue
        indexer.publish_table(table_name, peer.peer_id)
        stats = peer.database.table_stats(table_name)
        for column in table.schema.column_names:
            if policy.admits_column(column):
                indexer.publish_column(column, peer.peer_id, [table_name])
        for column in range_columns.get(table_name, []):
            column_stats = stats.columns[column.lower()]
            indexer.publish_range(
                table_name, column, column_stats.minimum,
                column_stats.maximum, peer.peer_id,
            )


def _overlay_entries(network):
    """key -> multiset of the entries stored under it, network-wide."""
    entries = {}
    for node in network.overlay.overlay.nodes():
        for key, values in node.items.items():
            if values:
                entries.setdefault(key, Counter()).update(values)
    return entries


def _census_rows(table, ids):
    if table == "a":
        return [(i, float(i % 5)) for i in ids]
    return [(i, f"w{i % 3}") for i in ids]


_id_lists = st.lists(st.integers(0, 40), max_size=8, unique=True)
_refreshes = st.lists(
    st.tuples(
        st.sampled_from(CENSUS_PEERS), st.sampled_from(["a", "b"]), _id_lists
    ),
    max_size=8,
)


class TestRepublishByDifference:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(CENSUS_POLICIES),
        st.lists(st.tuples(_id_lists, _id_lists), min_size=3, max_size=3),
        _refreshes,
    )
    def test_overlay_equals_unpublish_then_publish(self, policy, loads, refreshes):
        def build():
            network = BestPeerNetwork(CENSUS_SCHEMAS, index_policy=policy)
            for peer_id, (a_ids, b_ids) in zip(CENSUS_PEERS, loads):
                network.add_peer(peer_id)
                network.load_peer(
                    peer_id,
                    {"a": _census_rows("a", a_ids), "b": _census_rows("b", b_ids)},
                    range_columns=CENSUS_RANGES,
                    backup=False,
                )
            return network

        network, twin = build(), build()
        assert _overlay_entries(network) == _overlay_entries(twin)
        for peer_id, table, ids in refreshes:
            rows = _census_rows(table, ids)
            network.refresh_peer(
                peer_id, table, rows, range_columns=CENSUS_RANGES, backup=False
            )
            # The twin refreshes the data, then republishes the old way.
            peer, indexer = twin.peers[peer_id], twin.indexers[peer_id]
            peer.refresh(table, CENSUS_SCHEMAS[table].column_names, rows, now=0.0)
            indexer.unpublish_all(peer_id)
            _publish_as_the_parent_did(peer, indexer, CENSUS_RANGES)

            assert _overlay_entries(network) == _overlay_entries(twin)
            for other in CENSUS_PEERS:
                assert Counter(network.indexers[other]._published) == Counter(
                    twin.indexers[other]._published
                )
            fallback = CENSUS_PEERS if policy is not None else None
            for probe in [
                ("a",), ("b",), ("a", "id"), ("b", "w"), ("a", "v", 1.0, 3.0),
                ("a", "id", 10, 25), ("b", "id", None, 5), ("a", "id", 39, None),
            ]:
                ours = network.indexers["p0"].locate(*probe, fallback_peers=fallback)
                theirs = twin.indexers["p0"].locate(*probe, fallback_peers=fallback)
                assert (ours.peers, ours.index_used) == (
                    theirs.peers, theirs.index_used
                )
            for indexer in twin.indexers.values():
                indexer.clear_cache()  # refresh_peer cleared ours

    def test_initial_publication_matches_the_parent_loop(self):
        network = BestPeerNetwork(CENSUS_SCHEMAS)
        twin = BestPeerNetwork(CENSUS_SCHEMAS)
        data = {"a": _census_rows("a", range(6)), "b": _census_rows("b", [])}
        for net in (network, twin):
            net.add_peer("p0")
        network.load_peer("p0", data, range_columns=CENSUS_RANGES)
        for table, rows in data.items():
            twin.peers["p0"].load_initial(
                table, CENSUS_SCHEMAS[table].column_names, rows
            )
        _publish_as_the_parent_did(
            twin.peers["p0"], twin.indexers["p0"], CENSUS_RANGES
        )
        # Same entries, published in the same order.
        assert network.indexers["p0"]._published == twin.indexers["p0"]._published
        assert _overlay_entries(network) == _overlay_entries(twin)
