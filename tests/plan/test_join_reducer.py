"""The join reducer's semantics: residual before concatenation, key order.

A join stage's reducer gets its input as ``(side, batch, positions)``
runs, in any order.  It groups each side on its own (a
side of distinct keys as one dict), pairs each key group's lefts with its
rights in merge-sort key order and runs the stage's residual over the
pairs' halves, concatenating only the pairs it keeps.  The oracle here is
the reducer as it was: ``(tag, row)`` pairs, every pair concatenated, then
the joined rows filtered.  Rows, widths, sizes and the first error must be
the same, and a reducer that keeps only the selected column must give
that column of the same rows, with the same widths, sizes and first error.  ``key_order`` sorts keys of one type by ``repr`` alone; the
oracle is the ``_sortable`` sort.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MapReduceError, SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.mapreduce import InputSplit, MapReduceEngine, MapReduceJob, SplitData
from repro.mapreduce.job import _sortable, key_order, record_sizes
from repro.plan.driver import TAGGED_ROW_BYTES, _join_map, _join_stage, lower_join_stage
from repro.plan.sms import SmsPlanner
from repro.sim import SimNetwork
from repro.sqlengine import Column, ColumnType, TableSchema
from repro.sqlengine.batch import ColumnBatch, LazyColumns, positions_by_key, text_widths
from tests.property.test_wire_pricing import join_runs, whole_row_reducer

A = TableSchema("a", [
    Column("id", ColumnType.INTEGER),
    Column("v", ColumnType.FLOAT),
    Column("s", ColumnType.TEXT),
])
B = TableSchema("b", [Column("fid", ColumnType.INTEGER), Column("w", ColumnType.FLOAT)])
SCHEMAS = {"a": A, "b": B}


def lowered_stage(sql):
    """The stage's whole-row lowering, and its reducer keeping ``a.id``,
    over rows laid out as the tables are (whichever columns the planner
    pushes down)."""
    plan = SmsPlanner(SCHEMAS).compile(sql)
    (stage,) = plan.joins
    stage = replace(stage, right=replace(stage.right, columns=["b.fid", "b.w"]))
    columns = ["a.id", "a.v", "a.s"]
    _, keeping_id, _ = _join_stage(stage, columns, len(columns), {"a.id"})
    return lower_join_stage(stage, columns), keeping_id


def concatenate_then_filter(residual, keys, tagged, width):
    """Every ``(tag, row)`` pair joined, in key order and lefts x rights,
    then filtered."""
    rows = [
        left + right
        for key in sorted(dict.fromkeys(keys), key=_sortable)
        for k, (tag, left) in zip(keys, tagged) if tag == "L" and k == key
        for j, (other, right) in zip(keys, tagged) if other == "R" and j == key
    ]
    kept = residual(LazyColumns.over_rows(rows, width), len(rows))
    return [rows[position] for position in kept]


def outcome(thunk):
    try:
        return thunk()
    except SqlExecutionError as error:
        return str(error)


#: Join keys, with equal keys of different types: 0/False, 1/1.0/True and
#: 2/2.0 are one key each.
JOIN_KEYS = [0, False, 1, 1.0, True, 2, 2.0, 3]
EQUAL_KEYS = {0: [0, False], 1: [1, 1.0, True], 2: [2, 2.0], 3: [3]}
#: One side's keys: none, all distinct (so at most one of 1, 1.0 and True),
#: or with a duplicate, which may be an equal key of another type.
SIDE_KEYS = st.one_of(
    st.just([]),
    st.lists(st.sampled_from(JOIN_KEYS), min_size=1, max_size=6, unique=True),
    st.lists(st.sampled_from(JOIN_KEYS), min_size=1, max_size=6).flatmap(
        lambda keys: st.sampled_from(EQUAL_KEYS[keys[0]]).map(
            lambda twin: keys + [twin]
        )
    ),
)
A_TAILS = st.tuples(
    st.sampled_from([0.0, 1.0, 2.5, None]), st.sampled_from([None, None, "x"])
)
B_TAILS = st.tuples(st.sampled_from([0.0, 1.0, 4.0, None]))


@st.composite
def tagged_inputs(draw):
    """A reducer's input as ``(tag, row)`` pairs, the sides interleaved."""
    tagged = [
        ("L", (key,) + draw(A_TAILS)) for key in draw(SIDE_KEYS)
    ] + [("R", (key,) + draw(B_TAILS)) for key in draw(SIDE_KEYS)]
    order = draw(st.permutations(range(len(tagged))))
    return [tagged[position] for position in order]


PREDICATES = [
    # rows raise different errors: division by zero where w is 0, text
    # arithmetic where s is set
    "a.v / b.w + a.s > 1",
    "a.v > b.w",
    "a.v * 0 > b.w + 100",  # rejects every pair
]


def reduce_and_oracle(tagged, predicate):
    """(the reducer's outcome, the oracle's, the ``a.id``-keeping reducer's)
    over ``tagged``, each reducer given one run (a batch of its rows) per
    stretch of one side."""
    (left_key, right_key, columns, residual), keeping_id = lowered_stage(
        f"SELECT a.id FROM a, b WHERE a.id = b.fid AND {predicate}"
    )
    keys = [row[left_key if tag == "L" else right_key] for tag, row in tagged]
    rows = [row for _, row in tagged]
    sizes = [width + TAGGED_ROW_BYTES for width in text_widths(rows)]
    runs = join_runs(tagged, {"L": 3, "R": 2})
    reduce_input = whole_row_reducer(residual, columns, 3)
    got = outcome(lambda: reduce_input(keys, sizes, runs))
    want = outcome(lambda: concatenate_then_filter(residual, keys, tagged, len(columns)))
    kept = outcome(lambda: keeping_id(keys, sizes, runs))
    return got, want, kept


def assert_same(got, want, kept):
    if isinstance(want, str):
        assert got == want == kept
    else:
        assert got.rows == want
        assert got.widths == text_widths(want)
        assert got.known_sizes == record_sizes(want)
        assert kept.columns == ["a.id"]
        assert kept.rows == [row[:1] for row in want]
        assert kept.widths == got.widths and kept.known_sizes == got.known_sizes


class TestResidualBeforeConcatenation:
    @settings(max_examples=300, deadline=None)
    @given(tagged_inputs(), st.sampled_from(PREDICATES))
    def test_same_rows_and_first_error_as_filtering_joined_rows(self, tagged, predicate):
        assert_same(*reduce_and_oracle(tagged, predicate))

    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize("left, right", [
        ([1, 2, 3], [2, 1, 2, 1]),  # unique left
        ([2, 1, 2, 1], [1, 2, 3]),  # unique right
        ([3, 1, 2], [2, 3, 0]),  # both unique
        ([1, 2, 1, 2], [2, 2, 1]),  # both duplicated
        ([], [1, 2]),  # an empty side
        ([1, 2], []),
        ([1, 1.0, True], [True, 2]),  # 1, 1.0 and True are one key
        ([True, 0], [1.0, False, 1]),
    ])
    def test_every_side_shape(self, left, right, predicate):
        tails = [(1.0, None), (2.5, "x"), (0.0, None), (None, None)]
        ws = [(0.0,), (1.0,), (4.0,), (None,)]
        tagged = [("L", (k,) + tails[i % 4]) for i, k in enumerate(left)] + [
            ("R", (k,) + ws[i % 4]) for i, k in enumerate(right)
        ]
        for order in (tagged, tagged[::-1], tagged[1::2] + tagged[::2]):
            assert_same(*reduce_and_oracle(order, predicate))

    @pytest.mark.parametrize("keys, distinct", [
        ([], True),
        ([3, 1, 2], True),
        ([1, 1.0], False),  # equal keys of two types are not distinct
        ([True, 2, 1], False),
        ([0, False], False),
        ([2, 2], False),
    ])
    def test_a_side_is_distinct_only_if_no_two_keys_are_equal(self, keys, distinct):
        positions, found = positions_by_key(keys, len(keys))
        assert found is distinct
        assert len(positions) == len(set(keys))


def join_job(splits, num_reducers):
    return MapReduceJob(
        "join",
        splits,
        map_fn=_join_map(0, 0),
        reduce_fn=whole_row_reducer(None, ["l.k", "l.v", "r.k", "r.v"], 2),
        num_reducers=num_reducers,
    )


def side_split(host, tag, rows):
    return InputSplit(host, lambda: SplitData(
        ColumnBatch.from_rows(["k", "v"], rows), tag=tag
    ))


class TestRunsInAnyOrder:
    """The shuffle hands a reducer left splits before right ones; the
    reducer must not depend on it."""

    def engine(self, hosts):
        network = SimNetwork()
        for host in hosts:
            network.add_host(host)
        return MapReduceEngine(hosts, network)

    @pytest.mark.parametrize("num_reducers", [1, 2, 3])
    def test_right_splits_listed_first_join_the_same(self, num_reducers):
        hosts = ["w0", "w1"]
        left = [(k % 5, f"l{k}") for k in range(12)]
        right = [(k % 7, k * 0.5) for k in range(10)]
        lefts = [side_split(h, "L", left[i::2]) for i, h in enumerate(hosts)]
        rights = [side_split(h, "R", right[i::2]) for i, h in enumerate(hosts)]
        results = [
            self.engine(hosts).run_job(join_job(splits, num_reducers))
            for splits in (
                lefts + rights,
                rights + lefts,  # every reducer's input opens with a right run
                [rights[0], lefts[1], rights[1], lefts[0]],  # and alternates
            )
        ]
        want = sorted(l + r for l in left for r in right if l[0] == r[0])
        assert sorted(results[0].records) == want
        # Within a side, arrival order is kept: only the third job, whose
        # left splits arrive in another order, pairs in another order.
        assert results[1].records == results[0].records
        assert sorted(results[2].records) == want
        for result in results:
            assert result.bytes_shuffled == results[0].bytes_shuffled

    def test_a_run_of_no_side_is_refused(self):
        hosts = ["w0"]
        split = InputSplit("w0", lambda: SplitData(ColumnBatch.from_rows(["k", "v"], [(1, 2)])))
        with pytest.raises(MapReduceError, match="side"):
            self.engine(hosts).run_job(join_job([split, split], 1))


class TestStageFiles:
    def test_a_residual_that_rejects_every_pair_writes_an_empty_stage_file(self):
        cluster = HadoopDbCluster(3)
        cluster.create_tables([A, B])
        for index in range(3):
            cluster.load_worker(index, {
                "a": [(k, float(k), None) for k in range(index, 30, 3)],
                "b": [(k, 1.0) for k in range(index, 30, 3)],
            })
        written = []
        write = cluster.hdfs.write

        def recording(path, batch, size_bytes, *args):
            written.append((path, batch.rows, size_bytes))
            return write(path, batch, size_bytes, *args)

        cluster.hdfs.write = recording
        result = cluster.execute(
            "SELECT a.id FROM a, b WHERE a.id = b.fid AND a.v < b.w - 100"
        )
        assert result.records == []
        assert [(records, size) for _, records, size in written] == [([], 0)]


SCALAR_KEYS = st.one_of(
    st.none(),
    st.integers(-3, 12),
    st.text(alphabet="ab1'", max_size=3),
    st.sampled_from([1, 1.0, True, 0, 0.0, False, 2.5, -0.0]),
)
KEYS = st.one_of(SCALAR_KEYS, st.tuples(SCALAR_KEYS), st.tuples(SCALAR_KEYS, SCALAR_KEYS))


def spelled(keys):
    """Each key's type and text: tells 1, 1.0 and True apart."""
    return [(type(key), repr(key)) for key in keys]


class TestKeyOrder:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-20, 20)),
        st.lists(st.text(alphabet="ab1'", max_size=3)),
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["x", "y"]))),
        st.lists(KEYS, max_size=16),
    ))
    def test_is_the_sortable_order(self, keys):
        want = sorted(dict.fromkeys(keys), key=_sortable)
        assert spelled(key_order(keys)) == spelled(want)

    @pytest.mark.parametrize("keys", [
        [10, 9, 100, -1],  # repr order, not numeric
        [1, 1.0, True, 2],  # one key, named by its first spelling
        [True, 1.0, 1, None],
        [(1, "a"), (1,), ("b",), (1, "a")],
        [],
    ])
    def test_examples(self, keys):
        want = sorted(dict.fromkeys(keys), key=_sortable)
        assert spelled(key_order(keys)) == spelled(want)
