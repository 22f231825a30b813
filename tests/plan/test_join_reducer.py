"""The join reducer's semantics: residual before concatenation, key order.

A join stage's reducer pairs each key group's lefts with its rights in
merge-sort key order and runs the stage's residual over the pairs' halves,
concatenating only the pairs it keeps.  The oracle here is the reducer as
it was: concatenate every pair, then filter the joined rows.  Rows, widths,
sizes and the first error must be the same.  ``key_order`` sorts keys of
one type by ``repr`` alone; the oracle is the ``_sortable`` sort.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SqlExecutionError
from repro.hadoopdb import HadoopDbCluster
from repro.mapreduce.job import _sortable, key_order, record_sizes
from repro.plan.driver import TAGGED_ROW_BYTES, _join_reduce, lower_join_stage
from repro.plan.sms import SmsPlanner
from repro.sqlengine import Column, ColumnType, TableSchema
from repro.sqlengine.batch import LazyColumns, text_widths

A = TableSchema("a", [
    Column("id", ColumnType.INTEGER),
    Column("v", ColumnType.FLOAT),
    Column("s", ColumnType.TEXT),
])
B = TableSchema("b", [Column("fid", ColumnType.INTEGER), Column("w", ColumnType.FLOAT)])
SCHEMAS = {"a": A, "b": B}


def lowered_stage(sql):
    plan = SmsPlanner(SCHEMAS).compile(sql)
    (stage,) = plan.joins
    return lower_join_stage(stage, list(plan.base.columns))


def concatenate_then_filter(residual, keys, tagged, width):
    """Every pair joined, in key order and lefts x rights, then filtered."""
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


A_ROWS = st.tuples(
    st.integers(0, 3),
    st.sampled_from([0.0, 1.0, 2.5, None]),
    st.sampled_from([None, None, "x"]),
)
B_ROWS = st.tuples(st.integers(0, 3), st.sampled_from([0.0, 1.0, 4.0, None]))


class TestResidualBeforeConcatenation:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(
            A_ROWS.map(lambda row: ("L", row)), B_ROWS.map(lambda row: ("R", row))
        ), max_size=14),
        st.sampled_from([
            # rows raise different errors: division by zero where w is 0,
            # text arithmetic where s is set
            "a.v / b.w + a.s > 1",
            "a.v > b.w",
            "a.v * 0 > b.w + 100",  # rejects every pair
        ]),
    )
    def test_same_rows_and_first_error_as_filtering_joined_rows(self, tagged, predicate):
        left_key, right_key, columns, residual = lowered_stage(
            f"SELECT a.id FROM a, b WHERE a.id = b.fid AND {predicate}"
        )
        keys = [row[left_key if tag == "L" else right_key] for tag, row in tagged]
        halves = [row for _, row in tagged]
        sizes = [width + TAGGED_ROW_BYTES for width in text_widths(halves)]
        reduce_input = _join_reduce(residual, 3, 2)
        got = outcome(
            lambda: reduce_input(keys, tagged, sizes, record_sizes(halves))
        )
        want = outcome(
            lambda: concatenate_then_filter(residual, keys, tagged, len(columns))
        )
        if isinstance(want, str):
            assert got == want
        else:
            assert got.records == want
            assert got.widths == text_widths(want)
            assert got.sizes == record_sizes(want)


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

        def recording(path, records, size_bytes, *args):
            written.append((path, list(records), size_bytes))
            return write(path, records, size_bytes, *args)

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
