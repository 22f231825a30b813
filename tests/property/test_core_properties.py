"""Property-based tests for core invariants: bloom filters, fingerprints,
snapshot diffs (and the loader's prefilter and atomic apply in front of
them), the compile door, histograms, makespan scheduling."""

import datetime
import hashlib
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    BestPeerNetwork,
    build_filter,
    fingerprint_tuple,
    snapshot_diff,
)
from repro.core.access_control import READ, rule
from repro.core.execution import makespan
from repro.core.histogram import Histogram
from repro.core.loader import DataLoader
from repro.core.schema_mapping import identity_mapping
from repro.errors import ReproError
from repro.plan.sms import SmsPlanner
from repro.sqlengine import Column, ColumnType, Database, TableSchema
from repro.sqlengine.parser import parse
from repro.sqlengine.table import Table
from repro.sqlengine.types import canonical_key
from repro.tpch import (
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    TPCH_SCHEMAS,
    TpchGenerator,
    retailer_throughput_query,
    schema_for,
    supplier_throughput_query,
)


# ----------------------------------------------------------------------
# Bloom filters: never a false negative
# ----------------------------------------------------------------------
values = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=200)
#: Join keys of several kinds, some equal across kinds.
EQUAL_ACROSS_TYPES = [
    1, 1.0, True, 0, 0.0, -0.0, False, (1, "a"), (1.0, "a"), "1", None
]
keys = st.one_of(
    st.integers(-50, 50),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-50, max_value=50),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.tuples(st.integers(-3, 3), st.text(max_size=2)),
    st.sampled_from(EQUAL_ACROSS_TYPES),
)


class BigIntBloom:
    """The construction the byte array replaced (the oracle): the filter is
    one Python int and bit ``p`` is ``1 << p``; keys hash as the filter's
    double hashing of ``repr(canonical_key(key))``."""

    def __init__(self, num_bits, num_hashes):
        self.num_bits, self.num_hashes, self.bits = num_bits, num_hashes, 0

    def _positions(self, value):
        digest = hashlib.sha256(repr(canonical_key(value)).encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1
        return [(h1 + i * h2) % self.num_bits for i in range(self.num_hashes)]

    def add(self, value):
        for position in self._positions(value):
            self.bits |= 1 << position

    def __contains__(self, value):
        return all(self.bits & (1 << position) for position in self._positions(value))


class TestBloomProperties:
    @given(values)
    def test_no_false_negatives(self, inserted):
        bloom = build_filter(inserted)
        for value in inserted:
            assert value in bloom

    @given(
        st.lists(
            st.integers(-10**6, 10**6),
            min_size=30,
            max_size=200,
            unique=True,
        )
    )
    def test_false_positive_rate_bounded(self, inserted):
        # Tiny filters (a handful of bits) legitimately have high FP rates;
        # the bound below is for reasonably sized filters.
        distinct = set(inserted)
        bloom = build_filter(distinct, bits_per_key=10, num_hashes=4)
        probes = range(2 * 10**6, 2 * 10**6 + 2000)
        false_positives = sum(1 for probe in probes if probe in bloom)
        # ~1% theoretical at 10 bits/key; allow generous slack.
        assert false_positives < 150

    @given(values)
    def test_size_proportional_to_keys(self, inserted):
        bloom = build_filter(inserted, bits_per_key=10)
        assert bloom.size_bytes == (len(inserted) * 10 + 7) // 8

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(keys, max_size=40),
        st.lists(keys, max_size=40),
        st.integers(1, 12),
        st.integers(1, 6),
    )
    def test_bits_and_verdicts_are_the_big_int_filters(
        self, inserted, probes, bits_per_key, num_hashes
    ):
        bloom = build_filter(inserted, bits_per_key, num_hashes)
        oracle = BigIntBloom(bloom.num_bits, num_hashes)
        for value in inserted:
            oracle.add(value)
        assert int.from_bytes(bloom._bits, "little") == oracle.bits
        members = set(inserted)
        for value in inserted + probes + EQUAL_ACROSS_TYPES:
            assert (value in bloom) == (value in oracle)
            # Why the bloom join may pass a key equal to a build key unhashed.
            assert value not in members or value in bloom


# ----------------------------------------------------------------------
# Rabin fingerprints over tuples
# ----------------------------------------------------------------------
cells = st.one_of(
    st.none(),
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
tuples_ = st.lists(cells, max_size=6).map(tuple)


class TestFingerprintProperties:
    @given(tuples_)
    def test_deterministic(self, row):
        assert fingerprint_tuple(row) == fingerprint_tuple(row)

    @given(tuples_)
    def test_32_bits(self, row):
        assert 0 <= fingerprint_tuple(row) < (1 << 32)

    @given(tuples_, tuples_)
    @example((0.0,), (-0.0,))
    def test_equal_rows_equal_fingerprints(self, a, b):
        if a == b and [type(x) for x in a] == [type(x) for x in b]:
            assert fingerprint_tuple(a) == fingerprint_tuple(b)


# ----------------------------------------------------------------------
# Snapshot differential: applying the delta reproduces the new snapshot
# ----------------------------------------------------------------------
snapshot_rows = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(["a", "b", "c"])),
    max_size=60,
)


class TestSnapshotDiffProperties:
    @given(snapshot_rows, snapshot_rows)
    def test_delta_transforms_old_into_new(self, old, new):
        inserted, deleted = snapshot_diff(old, new)
        result = Counter(old)
        for row in deleted:
            assert result[row] > 0, "delta deletes a row the old side lacks"
            result[row] -= 1
        result.update(inserted)
        assert +result == Counter(new)

    @given(snapshot_rows)
    def test_identical_snapshots_empty_delta(self, rows):
        assert snapshot_diff(rows, list(rows)) == ([], [])

    @given(snapshot_rows, snapshot_rows)
    def test_delta_is_minimal(self, old, new):
        inserted, deleted = snapshot_diff(old, new)
        overlap = Counter(old) & Counter(new)
        assert len(deleted) == len(old) - sum(overlap.values())
        assert len(inserted) == len(new) - sum(overlap.values())


# ----------------------------------------------------------------------
# The loader: a loaded table is its own snapshot, and a refresh gives the
# reference's delta over the coerced extractions
# ----------------------------------------------------------------------
class _Key(int):
    """An int subclass: ``fingerprint_tuple`` tags it ``_Key``, not ``int``."""


_NAN = float("nan")
_TYPED_SCHEMA = TableSchema(
    "t",
    [
        Column("k", ColumnType.INTEGER),
        Column("x", ColumnType.FLOAT),
        Column("s", ColumnType.TEXT),
        Column("d", ColumnType.DATE),
    ],
)
_TYPED_COLUMNS = ["k", "x", "s", "d"]
# Per column: typed values, values the column coerces (into a value that may
# also be there typed: 7 / "7", 0 / 0.0, a date / its ISO text), values
# ``==`` conflates that the reference's encoding does not (0.0 / -0.0,
# 1 / _Key(1)), NULL and NaN.
_COERCIBLE = (
    [None, 0, 1, 7, 2**70, _Key(1), "7", 7.0],
    [None, 0.0, -0.0, 1.0, 2.5, _NAN, 0, 1, "2.5", "nan"],
    [None, "", "a", "7", 7, 2.5],
    [None, "1998-09-15", "1998-09-16", datetime.date(1998, 9, 15)],
)
# One value per column that the column refuses.
_REFUSED = (True, "x", True, "junk")
_typed_row = st.tuples(*map(st.sampled_from, _COERCIBLE))


@st.composite
def _refused_sometimes(draw, rows):
    """``rows``, or rarely ``rows`` with one row the schema refuses."""
    if rows and draw(st.integers(0, 7)) == 0:
        at, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))
        bad = list(rows[at])
        bad[column] = _REFUSED[column]
        rows = rows[:at] + [tuple(bad)] + rows[at:]
    return rows


@st.composite
def _extraction_sequences(draw):
    """A first extraction and 1-4 more, each an edit of the one before:
    rows kept, dropped, duplicated, updated with their key kept, added."""
    extraction = draw(st.lists(_typed_row, max_size=10))
    sequence = [draw(_refused_sometimes(extraction))]
    for _ in range(draw(st.integers(1, 4))):
        edited = []
        for row in extraction:
            edit = draw(st.sampled_from(["keep", "keep", "drop", "update", "twin"]))
            if edit == "update":
                row = row[:1] + draw(_typed_row)[1:]
            if edit != "drop":
                edited.append(row)
            if edit == "twin":
                edited.append(row)
        extraction = edited + draw(st.lists(_typed_row, max_size=4))
        sequence.append(draw(_refused_sometimes(extraction)))
    return sequence


def _exact(rows):
    """Rows as the reference's encoding sees them: type and repr per value."""
    return [[(type(value).__name__, repr(value)) for value in row] for row in rows]


def _coerced_or_error(extraction):
    """The extraction as the table holds it, or what inserting it into an
    empty table raises."""
    try:
        return [_TYPED_SCHEMA.coerce_row(row) for row in extraction]
    except ReproError as error:
        return error


def _storage(table):
    return (
        _exact(table.rows()),
        len(table),
        table.byte_size,
        _exact(table.column_data()),
        {
            name: [(repr(key), index.lookup(key)) for key in index.keys()]
            for name, index in table.indexes.items()
        },
    )


class TestLoaderPrefilterProperties:
    @settings(max_examples=300, deadline=None)
    @given(_extraction_sequences(), st.booleans())
    def test_same_lists_in_the_same_order_as_the_reference(self, sequence, indexed):
        database = Database()
        table = database.create_table(_TYPED_SCHEMA)
        if indexed:
            table.create_index("idx_k", "k")
        loader = DataLoader(database, identity_mapping({"t": _TYPED_SCHEMA}))
        held = None  # the coerced extraction the table holds
        for extraction in sequence:
            expected = _coerced_or_error(extraction)
            step = loader.initial_load if held is None else loader.refresh
            if isinstance(expected, ReproError):
                before = (_storage(table), table.version)
                with pytest.raises(type(expected)) as raised:
                    step("t", _TYPED_COLUMNS, extraction)
                assert str(raised.value) == str(expected)
                assert (_storage(table), table.version) == before
                continue
            delta = step("t", _TYPED_COLUMNS, extraction)
            if held is None:
                assert _exact(delta.inserted.rows) == _exact(extraction)
            else:
                inserted, deleted = snapshot_diff(held, expected)
                assert _exact(delta.inserted) == _exact(inserted)
                assert _exact(delta.deleted) == _exact(deleted)
            assert sorted(_exact(table.rows())) == sorted(_exact(expected))
            held = expected

    @given(st.lists(_typed_row, max_size=25))
    def test_unchanged_snapshot_fingerprints_nothing(self, rows):
        database = Database()
        table = database.create_table(_TYPED_SCHEMA)
        loader = DataLoader(database, identity_mapping({"t": _TYPED_SCHEMA}))
        loader.initial_load("t", _TYPED_COLUMNS, rows)
        before = (_storage(table), table.version)
        # Every row cancels before the reference, an int subclass too.
        assert loader.refresh("t", _TYPED_COLUMNS, list(rows)).is_empty
        assert (_storage(table), table.version) == before


# ----------------------------------------------------------------------
# Table.apply_delta: what the parent's delete-scan + insert_many loop left
# ----------------------------------------------------------------------
_typed_rows = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2, 2**70, _Key(1)]),
        st.sampled_from([None, 0.0, -0.0, 1.0, 1, 0, _NAN, 2.5]),
        st.sampled_from([None, "", "a", "b"]),
        st.sampled_from([None, "1998-09-15", "1998-09-16"]),
    ),
    max_size=20,
)


def _apply_one_by_one(table, deleted, inserted):
    """The parent's ``DataLoader.refresh`` loop, kept as the oracle: one
    table scan per deleted row for the first row alike in type and value,
    ``delete_row`` each, then ``insert_many``."""
    for row in deleted:
        victim = next(
            (
                row_id
                for row_id in table.row_ids()
                if _exact([table.row_by_id(row_id)]) == _exact([row])
            ),
            None,
        )
        assert victim is not None, row
        table.delete_row(victim)
    table.insert_many(inserted)


class TestApplyDeltaProperties:
    @settings(max_examples=200, deadline=None)
    @given(_typed_rows, _typed_rows, st.booleans())
    def test_rows_order_and_ids_match_the_parent_loop(self, old, new, indexed):
        tables = [Table(_TYPED_SCHEMA), Table(_TYPED_SCHEMA)]
        for table in tables:
            if indexed:
                table.create_index("idx_k", "k")
            table.insert_many(old)
        # The loader's delta: over the rows as the table holds them.
        inserted, deleted = snapshot_diff(
            _coerced_or_error(old), _coerced_or_error(new)
        )
        ours, reference = tables
        version = ours.version
        row_ids = ours.apply_delta(deleted, inserted)
        _apply_one_by_one(reference, deleted, inserted)
        assert _storage(ours) == _storage(reference)
        # The victims' successors moved up; the new rows went last.
        first = len(old) - len(deleted)
        assert row_ids == list(range(first, first + len(inserted)))
        assert ours.version == version + bool(inserted or deleted)


# ----------------------------------------------------------------------
# The compile door: one cached (statement, plan) per text, shared by every
# engine and user, never edited, never wrong about who is asking
# ----------------------------------------------------------------------
_DOOR_SCHEMAS = {
    name: schema_for(name, with_nation_key=True) for name in TPCH_SCHEMAS
}
_DOOR_ENGINES = ["basic", "parallel", "mapreduce", "adaptive"]
_DOOR_QUERIES = {
    "Q1": Q1("1995-06-01", "1995-06-01"),
    "Q2": Q2("1995-06-01"),
    "Q3": Q3("1995-06-01", "1995-06-01"),
    "Q4": Q4(),
    "Q5": Q5(),
    "supplier": supplier_throughput_query(0),
    "retailer": retailer_throughput_query(0),
}
# The auditor reads these two columns under a value range (masked outside).
_MASKED = {"Q2", "Q4", "Q5", "supplier", "retailer"}


def _door_network():
    """Three peers hosting every table, pinned to nations 0, 1, 0, so that
    Q1-Q5 and both nation-scoped supply-chain queries all return rows."""
    network = BestPeerNetwork(_DOOR_SCHEMAS)
    generator = TpchGenerator(seed=5, scale=0.2)
    for index in range(3):
        network.add_peer(f"peer-{index}")
        network.load_peer(
            f"peer-{index}",
            generator.generate_peer(
                index, nation_key=index % 2, with_nation_key=True
            ),
            backup=False,
        )
    full = network.create_full_access_role("full")
    network.create_user("tester", "peer-0", full)
    auditor = full.plus(
        rule("lineitem.l_discount", (READ,), (0.0, 0.02)), "auditor"
    ).plus(rule("partsupp.ps_supplycost", (READ,), (1.0, 100.0)))
    network.define_role(auditor)
    network.create_user("auditor", "peer-0", auditor)
    return network


def _outcome(network, sql, engine, user):
    try:
        execution = network.execute(sql, engine=engine, user=user)
    except ReproError as error:
        return type(error).__name__, str(error)
    return (
        execution.columns,
        sorted(execution.records, key=repr),
        execution.latency_s,
        execution.bytes_transferred,
    )


class TestCompileDoor:
    @pytest.fixture(scope="class")
    def networks(self):
        """A network whose door stays warm, and a twin emptied before every
        query (what compiling each submission afresh would answer)."""
        return _door_network(), _door_network()

    @pytest.mark.parametrize("name", sorted(_DOOR_QUERIES))
    def test_one_pair_for_every_engine_and_user(self, networks, name):
        warm, cold = networks
        sql = _DOOR_QUERIES[name]
        for engine in _DOOR_ENGINES:
            outcomes = []
            for user in ("tester", "auditor", "tester"):
                cold.planner._compiled.clear()
                outcomes.append(_outcome(warm, sql, engine, user))
                assert outcomes[-1] == _outcome(cold, sql, engine, user)
            tester, auditor, tester_again = outcomes
            # (latency differs: the first run warmed the index cache)
            assert tester[:2] == tester_again[:2]
            assert len(tester) == 4 and tester[1], (name, engine, tester)
            if name in _MASKED:
                # Masked rows, or a refusal where rows cannot be masked:
                # never the tester's answer out of the shared plan.
                assert auditor != tester, (name, engine)
            else:
                assert auditor[:2] == tester[:2]
        # Shared by all of the above and still what a fresh compile gives.
        stmt = parse(sql)
        assert warm.planner._compiled[sql] == (
            stmt, SmsPlanner(_DOOR_SCHEMAS).compile(stmt)
        )
        assert warm.planner.compile_text(sql) is warm.planner.compile_text(sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELEC l_orderkey FROM lineitem",
            "SELECT l_orderkey FROM no_such_table",
            "SELECT no_such_column FROM lineitem",
            "DELETE FROM lineitem",
        ],
    )
    @pytest.mark.parametrize("engine", _DOOR_ENGINES)
    def test_errors_are_not_cached(self, networks, engine, sql):
        warm, _ = networks
        first = _outcome(warm, sql, engine, "tester")
        assert len(first) == 2, first  # (exception type, message)
        assert _outcome(warm, sql, engine, "tester") == first
        assert sql not in warm.planner._compiled

    def test_lru_stays_within_its_bound(self):
        planner = SmsPlanner(_DOOR_SCHEMAS)
        texts = [
            f"SELECT l_orderkey FROM lineitem WHERE l_orderkey = {i}"
            for i in range(300)
        ]
        first = planner.compile_text(texts[0])
        for text in texts[1:]:
            planner.compile_text(text)
            planner.compile_text(texts[0])  # recently used: must survive
            assert len(planner._compiled) <= Database.PLAN_CACHE_SIZE
        assert len(planner._compiled) == Database.PLAN_CACHE_SIZE
        assert planner.compile_text(texts[0]) is first
        assert texts[1] not in planner._compiled
        assert texts[-1] in planner._compiled


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
points = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ),
    max_size=300,
)


class TestHistogramProperties:
    @given(points, st.integers(1, 32))
    def test_counts_preserved(self, rows, buckets):
        histogram = Histogram.build(["x", "y"], rows, num_buckets=buckets)
        assert histogram.relation_size() == len(rows)

    @given(points)
    def test_region_count_bounded(self, rows):
        histogram = Histogram.build(["x", "y"], rows, num_buckets=8)
        count = histogram.region_count(lows={"x": 100.0}, highs={"x": 900.0})
        assert 0.0 <= count <= len(rows) + 1e-9

    @given(points)
    def test_full_region_counts_everything(self, rows):
        histogram = Histogram.build(["x", "y"], rows, num_buckets=8)
        assert histogram.region_count() == pytest.approx(len(rows))

    @given(points, st.floats(0, 1000), st.floats(0, 1000))
    def test_selectivity_in_unit_interval(self, rows, low, high):
        histogram = Histogram.build(["x", "y"], rows, num_buckets=8)
        value = histogram.selectivity(
            lows={"x": min(low, high)}, highs={"x": max(low, high)}
        )
        assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# Makespan scheduling (the fetch-thread model)
# ----------------------------------------------------------------------
durations = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=40
)


class TestMakespanProperties:
    @given(durations, st.integers(1, 40))
    def test_bounds(self, tasks, workers):
        span = makespan(tasks, workers)
        if not tasks:
            assert span == 0.0
            return
        assert span >= max(tasks) - 1e-9
        assert span <= sum(tasks) + 1e-9

    @given(durations)
    def test_single_worker_is_serial(self, tasks):
        assert makespan(tasks, 1) == pytest.approx(sum(tasks))

    @given(durations)
    def test_enough_workers_is_parallel(self, tasks):
        span = makespan(tasks, max(1, len(tasks)))
        expected = max(tasks) if tasks else 0.0
        assert span == pytest.approx(expected)

    @given(durations, st.integers(1, 20))
    def test_more_workers_never_slower(self, tasks, workers):
        assert makespan(tasks, workers + 1) <= makespan(tasks, workers) + 1e-9
