"""Property: pricing a batch is pricing its values, and a lane its pairs.

Every byte the simulated network is charged comes from one vector pricer
(:func:`repro.sqlengine.batch.wire_size`); :func:`records_byte_size` is its
rows-shaped door, :func:`value_sizes` / :func:`record_sizes` its per-value
form, and the MapReduce shuffle prices each ``(mapper host, reducer)`` lane
as ``wire_size(keys) + sum(sizes)``.  A join's ``(tag, row)`` is priced from
the row's text width, measured once per batch and summed through joins by
the tuple-text identity; a row's typed size (what a stage file is priced
by) is likewise priced once per batch and summed through joins.  The loops
those replaced live on here as the oracles: the per-value record price,
``len(str(row))`` and the per-pair shuffle.  Batching may change speed only — never a byte, a transfer, its
order, or an output row.  Nor may keeping fewer of a joined row's columns
change its width or size, nor remembering a key's reducer change where the
key goes.
"""

import datetime
import enum
import math
import zlib
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import repro.mapreduce.engine as engine_module
from repro.mapreduce import InputSplit, MapReduceEngine, MapReduceJob, SplitData
from repro.mapreduce.engine import records_byte_size
from repro.mapreduce.job import MapOutput, _sortable, record_sizes
from repro.plan.driver import TAGGED_ROW_BYTES, _join_map, _join_reduce
from repro.sim import SimNetwork
from repro.sqlengine.batch import (
    ColumnBatch,
    concat_text_offset,
    text_widths,
    value_sizes,
    vectors_from_rows,
    wire_size,
)
from repro.sqlengine.types import canonical_key, value_byte_size


def by_value_byte_size(records):
    """The per-record, per-value loop ``records_byte_size`` used to be."""
    total = 0
    for record in records:
        if isinstance(record, tuple):
            total += sum(value_byte_size(value) for value in record)
        else:
            total += value_byte_size(record)
    return total


def records_of(records):
    """A per-record job's split: ``records`` as a batch of rows."""
    return ColumnBatch.from_rows((), records)


def join_runs(tagged, widths):
    """A join reducer's runs over ``(tag, row)`` pairs: one batch per
    stretch of one side (``widths[tag]`` columns), its rows' typed sizes
    priced by the per-value oracle."""
    runs = []
    for tag, stretch in groupby(tagged, key=itemgetter(0)):
        rows = [row for _, row in stretch]
        batch = ColumnBatch(
            [f"{tag}{k}" for k in range(widths[tag])],
            vectors_from_rows(rows, widths[tag]),
            len(rows),
            sizes=[by_value_byte_size([row]) for row in rows],
        )
        runs.append((tag, batch, list(range(len(rows)))))
    return runs


def whole_row_reducer(residual, columns, left_width):
    """The join reducer keeping every column: ``left_width`` columns a
    left row, the rest of ``columns`` a right one."""
    right_width = len(columns) - left_width
    return _join_reduce(
        residual,
        columns,
        range(left_width),
        range(right_width),
        range(len(columns)),
        (left_width, right_width),
    )


class Code(int):
    """An int subclass: still 8 bytes, but not one of the exact numeric kinds."""


class Flag(enum.IntEnum):
    ON = 1


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, width=32),
    st.text(alphabet="ab'\\ 19é", max_size=8),
    st.sampled_from([Code(7), Flag.ON, b"raw", "1995-03-15"]),
)
FLAT_ROWS = st.integers(min_value=0, max_value=5).flatmap(
    lambda width: st.lists(st.tuples(*[SCALARS] * width), max_size=20)
)
RAGGED_ROWS = st.lists(st.lists(SCALARS, max_size=4).map(tuple), max_size=20)
#: What a join job shuffles: a tag beside a whole row, priced as its text.
TAGGED_ROWS = st.lists(
    st.tuples(st.sampled_from("LR"), st.lists(SCALARS, max_size=4).map(tuple)),
    max_size=20,
)
#: One vector of any kinds: NULL, bools, ints and int subclasses, floats,
#: text, tuples and dates.
MIXED_VECTOR = st.lists(
    st.one_of(
        SCALARS,
        st.dates(),
        st.tuples(SCALARS, st.sampled_from("LR")),
        st.sampled_from([1, 1.0, True, -0.0]),
    ),
    max_size=12,
)
RECORDS = st.one_of(
    FLAT_ROWS,
    RAGGED_ROWS,
    TAGGED_ROWS,
    st.lists(SCALARS, max_size=20),
    st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=3).map(tuple)), max_size=20),
)


class TestOnePricer:
    @settings(max_examples=400, deadline=None)
    @given(RECORDS)
    def test_batch_price_is_the_by_value_price(self, records):
        assert records_byte_size(records) == by_value_byte_size(records)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=3).map(tuple)), max_size=20))
    def test_vector_price_is_the_by_value_price(self, vector):
        # A nested tuple inside a vector is *a value*: its text plus 4.
        assert wire_size(vector) == sum(map(value_byte_size, vector))
        assert wire_size(tuple(vector)) == wire_size(vector)
        assert value_sizes(vector) == list(map(value_byte_size, vector))

    @settings(max_examples=300, deadline=None)
    @given(MIXED_VECTOR, MIXED_VECTOR)
    def test_the_price_of_two_vectors_joined_is_their_prices_summed(self, a, b):
        # The shuffle sums a lane's routed chunks instead of pricing the
        # lane whole, whichever kinds each chunk holds.
        assert wire_size(a + b) == wire_size(a) + wire_size(b)

    @settings(max_examples=400, deadline=None)
    @given(RECORDS)
    def test_record_sizes_are_each_records_price(self, records):
        assert record_sizes(records) == [by_value_byte_size([r]) for r in records]

    def test_the_tagged_row_quirk_is_part_of_the_cost_model(self):
        row = (7, "ab", 2.5, None)
        assert records_byte_size([("L", row)]) == (1 + 4) + (len(str(row)) + 4)
        assert records_byte_size([row]) == 8 + 6 + 8 + 1
        assert records_byte_size([(), ()]) == 0
        assert records_byte_size([True, Code(3), Flag.ON]) == 24


# ----------------------------------------------------------------------
# The shuffle: lanes against the per-pair oracle
# ----------------------------------------------------------------------
class RecordingNetwork(SimNetwork):
    def __init__(self):
        super().__init__()
        self.log = []

    def transfer(self, src, dst, nbytes, messages=1):
        self.log.append((src, dst, nbytes))
        return super().transfer(src, dst, nbytes, messages)


def per_pair_shuffle(engine, num_reducers, map_outputs, reduce_group):
    """The shuffle as it was: one partition hash and one price per pair,
    ``reduce_group(key, values)`` per key in merge-sort order."""
    partitions = [{} for _ in range(num_reducers)]
    lane_bytes = {}
    for host, pairs in map_outputs:
        for key, value in pairs:
            reducer = engine._partition_of(key, num_reducers)
            partitions[reducer].setdefault(key, []).append(value)
            lane_bytes[(host, reducer)] = (
                lane_bytes.get((host, reducer), 0)
                + value_byte_size(key)
                + by_value_byte_size([value])
            )
    transfers = [
        (host, engine._reducer_host(reducer), nbytes)
        for (host, reducer), nbytes in sorted(lane_bytes.items())
    ]
    records = []
    for partition in partitions:
        for key in sorted(partition, key=_sortable):
            records.extend(reduce_group(key, partition[key]))
    return records, sum(lane_bytes.values()), transfers


KEYS = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=9),
    st.sampled_from([1.0, 2.0, 2.5, -0.0, True, False, "a", "b", "1"]),
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(["x", "y"])),
    st.tuples(st.sampled_from([2, 2.0, None])),
)
VALUES = st.one_of(
    SCALARS,
    st.tuples(SCALARS, SCALARS),
    st.tuples(st.sampled_from("LR"), st.lists(SCALARS, max_size=3).map(tuple)),
)
PAIRS = st.lists(st.tuples(KEYS, VALUES), max_size=12)


class TestLanePricing:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        # (host index, that split's pairs): hosts repeat, so several splits
        # land on one host, and most reducers of a wide job get nothing.
        st.lists(st.tuples(st.integers(min_value=0, max_value=3), PAIRS), min_size=1, max_size=6),
    )
    def test_a_job_prices_and_routes_as_the_per_pair_shuffle(
        self, host_count, num_reducers, splits
    ):
        network = RecordingNetwork()
        hosts = [f"w{i}" for i in range(host_count)]
        for host in hosts:
            network.add_host(host)
        engine = MapReduceEngine(hosts, network)
        reduce_group = lambda key, values: [(key, len(values), values)]  # noqa: E731
        job = MapReduceJob.per_record(
            "j",
            [
                InputSplit(hosts[index % host_count], lambda pairs=pairs: SplitData(records_of(pairs)))
                for index, pairs in splits
            ],
            map_fn=lambda pair: [pair],
            reduce_fn=reduce_group,
            num_reducers=num_reducers,
        )
        map_outputs = [(split.host, split.fetch().batch.rows) for split in job.splits]
        records, nbytes, transfers = per_pair_shuffle(
            engine, num_reducers, map_outputs, reduce_group
        )

        result = engine.run_job(job)
        assert result.bytes_shuffled == nbytes
        assert network.log == transfers
        assert result.records == records
        assert [type(r[0]) for r in result.records] == [type(r[0]) for r in records]


# ----------------------------------------------------------------------
# Row text widths: measured once, summed through joins
# ----------------------------------------------------------------------
ROWS = st.lists(SCALARS, max_size=4).map(tuple)


class TestRowWidths:
    @settings(max_examples=400, deadline=None)
    @given(ROWS, ROWS)
    def test_a_joined_rows_width_is_derived_from_its_halves(self, left, right):
        derived = (
            len(str(left)) + len(str(right)) + concat_text_offset(len(left), len(right))
        )
        assert derived == len(str(left + right))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("LR"), st.integers(0, 3), ROWS), max_size=16),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_the_join_reducer_derives_every_output_width(self, inputs, nl, nr):
        """Its rows are each group's lefts x rights, its widths their texts
        and its sizes their typed prices."""
        tagged = [
            (tag, (key,) + (row + (None,) * 4)[: (nl if tag == "L" else nr)])
            for tag, key, row in inputs
        ]
        keys = [row[0] for _, row in tagged]
        halves = [row for _, row in tagged]
        sizes = [width + TAGGED_ROW_BYTES for width in text_widths(halves)]
        columns = [f"c{k}" for k in range(nl + nr + 2)]
        output = whole_row_reducer(None, columns, nl + 1)(
            keys, sizes, join_runs(tagged, {"L": nl + 1, "R": nr + 1})
        )
        assert output.rows == [
            left + right
            for key in sorted(dict.fromkeys(keys), key=_sortable)
            for tag, left in tagged if tag == "L" and left[0] == key
            for other, right in tagged if other == "R" and right[0] == key
        ]
        assert output.columns == columns
        assert output.widths == text_widths(output.rows)
        assert output.known_sizes == [by_value_byte_size([row]) for row in output.rows]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("LR"), st.integers(0, 3), ROWS), max_size=16),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_any_kept_subset_carries_the_whole_rows_widths_and_sizes(
        self, inputs, nl, nr, data
    ):
        """A reducer that stacks some columns of each side and keeps some of
        those gives the whole rows' columns at those positions, with the
        whole rows' widths and typed sizes."""
        tagged = [
            (tag, (key,) + (row + (None,) * 4)[: (nl if tag == "L" else nr)])
            for tag, key, row in inputs
        ]
        keys = [row[0] for _, row in tagged]
        sizes = [width + TAGGED_ROW_BYTES for width in text_widths([r for _, r in tagged])]
        runs = join_runs(tagged, {"L": nl + 1, "R": nr + 1})
        whole = whole_row_reducer(None, [f"c{k}" for k in range(nl + nr + 2)], nl + 1)(
            keys, sizes, runs
        )
        subset = lambda n: st.lists(st.integers(0, n - 1), unique=True).map(sorted)  # noqa: E731
        left = data.draw(subset(nl + 1))
        right = data.draw(subset(nr + 1))
        stacked = left + [nl + 1 + k for k in right]
        output = data.draw(subset(len(stacked))) if stacked else []
        columns = [f"c{stacked[k]}" for k in output]
        kept = _join_reduce(None, columns, left, right, output, (nl + 1, nr + 1))(
            keys, sizes, runs
        )
        assert kept.columns == columns
        assert kept.rows == [
            tuple(row[stacked[k]] for k in output) for row in whole.rows
        ]
        assert kept.widths == whole.widths
        assert kept.known_sizes == whole.known_sizes

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from("LR"),
        # a batch's rows are all one width
        st.integers(min_value=0, max_value=4).flatmap(
            lambda width: st.lists(
                st.tuples(
                    st.one_of(st.none(), st.integers(0, 3)),
                    st.tuples(*[SCALARS] * width),
                ),
                max_size=16,
            )
        ),
    )
    def test_a_lane_priced_from_sizes_is_its_pairs_price(self, tag, keyed):
        rows = [(key,) + row for key, row in keyed]
        width = len(rows[0]) if rows else 1
        data = SplitData(
            ColumnBatch.from_rows([f"c{k}" for k in range(width)], rows), tag=tag
        )
        output = _join_map(0, 0)(data)
        assert output.side == tag
        assert output.batch.rows == [row for row in rows if row[0] is not None]
        assert output.keys == [row[0] for row in output.batch.rows]
        assert output.batch.sizes == record_sizes(output.batch.rows)
        # The rows travel without their tag, priced as the (tag, row) pairs.
        pairs = [(tag, row) for row in output.batch.rows]
        lane_price = wire_size(output.keys) + sum(output.sizes)
        assert sum(output.sizes) == records_byte_size(pairs)
        assert lane_price == sum(
            value_byte_size(key) + by_value_byte_size([pair])
            for key, pair in zip(output.keys, pairs)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda width: st.lists(st.tuples(*[SCALARS] * width), min_size=1, max_size=12)
        ),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=5),
    )
    def test_cached_widths_stay_within_a_grown_mirror(self, rows, count, grown):
        """A batch over an owner table's shared column lists sees only its
        own ``count`` rows, although the lists grew before it was measured."""
        count = min(count, len(rows))
        columns = [list(column) for column in zip(*rows)]
        mirror = [column[:count] for column in columns]
        batch = ColumnBatch([f"c{k}" for k in range(len(mirror))], mirror, count)
        for vector, column in zip(mirror, columns):
            vector.extend(column[count:] * grown)  # the owner inserts later
        assert batch.widths == text_widths(rows[:count])
        assert batch.widths is batch.widths  # measured once
        assert batch.sizes == record_sizes(rows[:count])
        assert batch.sizes is batch.sizes  # priced once


# ----------------------------------------------------------------------
# Row typed sizes: priced once per batch, summed through joins
# ----------------------------------------------------------------------
class TestRowSizes:
    @settings(max_examples=400, deadline=None)
    @given(FLAT_ROWS)
    def test_a_batchs_row_sizes_are_its_price_row_by_row(self, rows):
        width = len(rows[0]) if rows else 3
        names = [f"c{k}" for k in range(width)]
        by_rows = ColumnBatch.from_rows(names, rows)
        by_vectors = ColumnBatch(names, [list(v) for v in zip(*rows)] or [[]] * width, len(rows))
        for batch in (by_rows, by_vectors):
            assert batch.sizes == record_sizes(batch.rows)
            assert batch.sizes == [by_value_byte_size([row]) for row in rows]
            assert sum(batch.sizes) == batch.byte_size

    def test_nulls_text_dates_mixed_and_empty_batches(self):
        batch = ColumnBatch(
            ["n", "t", "d", "m"],
            [
                [None, 1, None],
                ["ab", None, ""],
                ["1995-03-15", "1996-01-02", None],
                [3, "x", 2.5],  # numbers and text in one column
            ],
            3,
        )
        assert batch.sizes == [1 + 6 + 14 + 8, 8 + 1 + 14 + 5, 1 + 4 + 1 + 8]
        assert sum(batch.sizes) == batch.byte_size
        assert ColumnBatch.from_rows([], [(), ()]).sizes == [0, 0]
        assert ColumnBatch(["a"], [[]], 0).sizes == []
        assert ColumnBatch.from_rows(["a"], []).sizes == []

    @settings(max_examples=400, deadline=None)
    @given(ROWS, ROWS)
    def test_a_joined_rows_size_is_its_halves_summed(self, left, right):
        (joined,) = record_sizes([left + right])
        assert joined == sum(record_sizes([left, right]))
        assert joined == by_value_byte_size([left + right])


def respelled(key):
    """Keys equal to ``key``, its integers spelled as floats and booleans."""
    if isinstance(key, tuple):
        return st.tuples(*map(respelled, key))
    if isinstance(key, int):
        spellings = [int(key), float(key)]
        if key in (0, 1):
            spellings.append(bool(key))
        if key == 0:
            spellings.append(-0.0)
        return st.sampled_from(spellings)
    return st.just(key)


BASE_KEYS = st.recursive(
    st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(["a", "1", 2.5])),
    lambda keys: st.lists(keys, max_size=3).map(tuple),
    max_leaves=5,
)


class TestPartitioning:
    @settings(max_examples=300, deadline=None)
    @given(
        BASE_KEYS.flatmap(lambda key: st.tuples(respelled(key), respelled(key))),
        st.integers(min_value=1, max_value=11),
    )
    def test_equal_keys_share_a_reducer(self, keys, num_reducers):
        a, b = keys
        assert a == b and hash(a) == hash(b)
        assert canonical_key(a) == a
        assert repr(canonical_key(a)) == repr(canonical_key(b))
        assert MapReduceEngine._partition_of(
            a, num_reducers
        ) == MapReduceEngine._partition_of(b, num_reducers)

    @given(st.one_of(st.integers(), st.text(max_size=5), st.none()))
    def test_int_and_str_keys_are_their_own_canonical_form(self, key):
        assert canonical_key(key) is key
        assert canonical_key((key, "x")) == (key, "x")

    def test_int_str_and_tuple_keys_keep_their_reducer(self):
        # crc32(repr(key)) % n, as before canonical keys existed: the
        # golden simulated numbers depend on where these keys land.
        pinned = {
            0: (4, 4), 1: (3, 2), 7: (1, 4), 42: (3, 3), -3: (4, 0),
            10**12: (0, 0), "a": (4, 6), "FRANCE": (2, 4),
            "1995-03-15": (1, 3), (1, "a"): (1, 2), ("BUILDING",): (1, 2),
            (): (1, 4), None: (1, 4), 2.5: (3, 0),
        }
        for key, expected in pinned.items():
            assert expected == tuple(
                zlib.crc32(repr(key).encode("utf-8")) % n for n in (5, 7)
            ), key
            assert expected == tuple(
                MapReduceEngine._partition_of(key, n) for n in (5, 7)
            ), key


def routed_to(engine, keys, num_reducers):
    """Each of ``keys``'s reducer, as one map output's shuffle routes it."""
    job = MapReduceJob(
        "route",
        [InputSplit("w0", lambda: None)],
        map_fn=None,
        reduce_fn=lambda keys, sizes, runs: None,
        num_reducers=num_reducers,
    )
    output = MapOutput(keys, records_of([(key,) for key in keys]), [1] * len(keys))
    inputs, _ = engine._shuffle(job, [("w0", output)])
    where = {}
    for reducer, (_, _, runs) in enumerate(inputs):
        for _, _, positions in runs:
            where.update(dict.fromkeys(positions, reducer))
    return [where[position] for position in range(len(keys))]


def crc32_reducer(key, num_reducers):
    return zlib.crc32(repr(canonical_key(key)).encode("utf-8")) % num_reducers


#: Keys that are equal across types (1, 1.0, True; 0.0, -0.0), NaN (never
#: equal, even to itself), tuples, text and dates.
MEMO_KEYS = [
    1, 1.0, True, 0.0, -0.0, 0, False, float("nan"), float("nan"), 2.5,
    (1, "a"), (1.0, "a"), (True,), (), "a", "1", "",
    datetime.date(1995, 3, 15), "1995-03-15", None, (None, 2.0),
]


class TestPartitionMemo:
    """The shuffle remembers each key's reducer, process-wide, per reducer
    count; a remembered reducer is the one ``_partition_of`` gives."""

    @pytest.fixture
    def memo(self, monkeypatch):
        memo = {}
        monkeypatch.setattr(engine_module, "_REDUCER_OF", memo)
        return memo

    def engine(self):
        network = SimNetwork()
        network.add_host("w0")
        return MapReduceEngine(["w0"], network)

    @pytest.mark.parametrize("num_reducers", [1, 2, 5, 7])
    def test_a_remembered_reducer_is_the_crc32_of_the_canonical_key(
        self, memo, num_reducers
    ):
        engine = self.engine()
        want = [crc32_reducer(key, num_reducers) for key in MEMO_KEYS]
        assert routed_to(engine, MEMO_KEYS, num_reducers) == want  # cold
        assert routed_to(engine, MEMO_KEYS, num_reducers) == want  # warm
        # Keys met first as another spelling hit the same entry.
        assert routed_to(engine, MEMO_KEYS[::-1], num_reducers) == want[::-1]
        assert set(memo) == {num_reducers}
        for key, reducer in memo[num_reducers].items():
            assert reducer == crc32_reducer(key, num_reducers)
        # 1, 1.0 and True are one entry; so are 0, 0.0, -0.0 and False.
        assert sum(isinstance(key, (int, float)) and key == 1 for key in memo[num_reducers]) == 1
        assert sum(isinstance(key, (int, float)) and key == 0 for key in memo[num_reducers]) == 1
        assert sum(isinstance(k, float) and math.isnan(k) for k in memo[num_reducers]) == 2

    def test_each_reducer_count_has_its_own_memo(self, memo):
        engine = self.engine()
        for num_reducers in (3, 4):
            assert routed_to(engine, ["FRANCE", 42], num_reducers) == [
                crc32_reducer("FRANCE", num_reducers),
                crc32_reducer(42, num_reducers),
            ]
        assert sorted(memo) == [3, 4]

    def test_a_memo_past_its_cap_is_cleared(self, memo, monkeypatch):
        monkeypatch.setattr(engine_module, "PARTITION_MEMO_CAP", 3)
        engine = self.engine()
        routed_to(engine, [1, 2, 3], 5)
        assert set(memo[5]) == {1, 2, 3}  # at the cap: kept
        routed_to(engine, [4], 5)
        assert set(memo[5]) == {1, 2, 3, 4}  # past it now
        assert routed_to(engine, [9, 1], 5) == [crc32_reducer(k, 5) for k in (9, 1)]
        assert set(memo[5]) == {9, 1}  # cleared before the lookup
