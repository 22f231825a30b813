"""Property: pricing a batch is pricing its values, and a lane its pairs.

Every byte the simulated network is charged comes from one vector pricer
(:func:`repro.sqlengine.batch.wire_size`); :func:`records_byte_size` is its
rows-shaped door, :func:`value_sizes` / :func:`record_sizes` its per-value
form, and the MapReduce shuffle prices each ``(mapper host, reducer)`` lane
as ``wire_size(keys) + sum(sizes)``.  A join's ``(tag, row)`` is priced from
the row's text width, measured once per batch and summed through joins by
the tuple-text identity.  The loops those replaced live on here as the
oracles: the per-value record price, ``len(str(row))`` and the per-pair
shuffle.  Batching may change speed only — never a byte, a transfer, its
order, or an output row.
"""

import enum
import zlib

from hypothesis import given, settings, strategies as st

from repro.mapreduce import InputSplit, MapReduceEngine, MapReduceJob, SplitData
from repro.mapreduce.engine import records_byte_size
from repro.mapreduce.job import _sortable, record_sizes
from repro.plan.driver import TAGGED_ROW_BYTES, _join_map, _join_reduce
from repro.sim import SimNetwork
from repro.sqlengine.batch import (
    ColumnBatch,
    concat_text_offset,
    text_widths,
    value_sizes,
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
                InputSplit(hosts[index % host_count], lambda pairs=pairs: SplitData(records=pairs))
                for index, pairs in splits
            ],
            map_fn=lambda pair: [pair],
            reduce_fn=reduce_group,
            num_reducers=num_reducers,
        )
        map_outputs = [(split.host, split.fetch().records) for split in job.splits]
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
        """Its rows are each group's lefts x rights, its widths their texts."""
        tagged = [
            (tag, (key,) + (row + (None,) * 4)[: (nl if tag == "L" else nr)])
            for tag, key, row in inputs
        ]
        keys = [row[0] for _, row in tagged]
        sizes = [width + TAGGED_ROW_BYTES for width in text_widths([r for _, r in tagged])]
        rows, widths = _join_reduce(None, nl + 1, nr + 1)(keys, tagged, sizes)
        assert rows == [
            left + right
            for key in sorted(dict.fromkeys(keys), key=_sortable)
            for tag, left in tagged if tag == "L" and left[0] == key
            for other, right in tagged if other == "R" and right[0] == key
        ]
        assert widths == text_widths(rows)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from("LR"),
        st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 3)), ROWS), max_size=16),
    )
    def test_a_lane_priced_from_sizes_is_its_pairs_price(self, tag, keyed):
        rows = [(key,) + row for key, row in keyed]
        data = SplitData(rows, widths=text_widths(rows), tag=tag)
        output = _join_map(0, 0)(data)
        assert output.values == [(tag, row) for row in rows if row[0] is not None]
        assert output.keys == [value[1][0] for value in output.values]
        lane_price = wire_size(output.keys) + sum(output.sizes)
        assert sum(output.sizes) == records_byte_size(output.values)
        assert lane_price == sum(
            value_byte_size(key) + by_value_byte_size([value])
            for key, value in zip(output.keys, output.values)
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
        """A batch over an owner's shared column mirror sees only its own
        ``count`` rows, although the mirror grew before it was measured."""
        count = min(count, len(rows))
        columns = [list(column) for column in zip(*rows)]
        mirror = [column[:count] for column in columns]
        batch = ColumnBatch([f"c{k}" for k in range(len(mirror))], mirror, count)
        for vector, column in zip(mirror, columns):
            vector.extend(column[count:] * grown)  # the owner inserts later
        assert batch.widths == text_widths(rows[:count])
        assert batch.widths is batch.widths  # measured once


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
