"""Batch-at-a-time plan executor over column-major data.

Mirrors :class:`repro.sqlengine.executor.Executor` node for node, but every
operator consumes and produces ``(RowLayout, columns, row_count)`` — a list
of column vectors instead of a list of row tuples.  Dense base-table scans
read :meth:`Table.column_data` straight out of storage with zero copying,
and an index scan gathers from those lists at the ids the index returns;
predicates narrow selection vectors in ``BATCH_SIZE`` chunks via
:mod:`repro.sqlengine.vectorize` kernels; joins build and probe over key
vectors at C level and hand on ``(left, right)`` index vectors over their
inputs, from which a column is gathered when a consumer first reads it
(:class:`LazyColumns`, also what a narrowing filter and a sort hand on);
aggregation assigns group ids without a per-row loop and runs tight
per-column accumulation loops.  What a node needs lowered — layouts,
kernels, output names — is computed on its first execution and kept on the
plan node.  The plan's output leaves as a :class:`ColumnBatch`; row tuples
exist only inside the two inherently tuple-keyed operators, DISTINCT and
the group-by fallback.

Operators evaluate expressions through three public functions, each lowered
once and run over ``(cols, n)``: :func:`lower_values` (one vector per
expression), :func:`lower_filter` (the kept positions) and
:func:`lower_aggregate` (group keys and aggregates).  The distributed
engines' reducers and root-side steps (:mod:`repro.plan.driver`) call the
same three over their rows, so an expression has one lowering everywhere.

Equivalence contract: identical rows, identical :class:`ExecStats`, and the
identical first exception (vector kernels defer per-row errors, and every
operator re-raises the earliest one in reference row-visit order; the
group-by fast path goes further and re-runs the reference loop on any
error, since interleaved key/aggregate evaluation makes deferred ordering
subtle).  One knowing exception: when a query *raises*, the partially
accumulated counters in a caller-supplied ``stats`` object may differ from
the reference path's partial counts — counters are only defined on
success, and both equivalence suites assert them there.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, count, repeat
from operator import add, and_, eq, is_, is_not, or_
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.sqlengine.batch import (
    NUMERIC_KINDS,
    ColumnBatch,
    gather,
    positions_by_key,
    rows_from_vectors,
    vectors_from_rows,
)
from repro.sqlengine.executor import (
    ExecStats,
    group_output_layout,
    group_rows_reference,
    index_ids,
    projection,
    sort_order,
)
from repro.sqlengine.expr import ColumnRef, Expr, FuncCall, RowLayout
from repro.sqlengine.planner import (
    DistinctNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.sqlengine.table import Table
from repro.sqlengine.vectorize import (
    compile_vector_evaluator,
    compile_vector_filter,
)


class _FallbackToReference(Exception):
    """Internal: the grouped aggregate's fast path punts to the reference loop."""


def _lower_value(expr, layout: RowLayout):
    """What evaluating ``expr`` takes: a column position or a vector kernel.

    Bare references are the overwhelmingly common projection/sort/group
    key, and resolving them once lets the existing column vector pass
    through with no copy and no kernel.  Unresolvable names get a kernel so
    the error is deferred in reference row order.
    """
    if isinstance(expr, ColumnRef):
        try:
            return layout.resolve(expr.name)
        except SqlExecutionError:
            pass
    return compile_vector_evaluator(expr, layout)


def _vector_of(lowered, cols, n: int):
    """The value vector of a :func:`_lower_value` result over ``n`` rows,
    in batch-size chunks, and its earliest deferred ``(row, exception)``
    or None."""
    if isinstance(lowered, int):
        return cols[lowered], None
    batch = VectorizedExecutor.BATCH_SIZE
    if n <= batch:
        values, errs = lowered(cols, range(n))
        return values, (errs[0] if errs else None)
    values: List[object] = []
    first_err = None
    for start in range(0, n, batch):
        chunk_values, errs = lowered(cols, range(start, min(start + batch, n)))
        values.extend(chunk_values)
        if errs and first_err is None:
            first_err = errs[0]
    return values, first_err


# ----------------------------------------------------------------------
# The three ways an expression is evaluated over column vectors.  Each is
# lowered once per plan node, job or query, and each run raises exactly the
# exception the interpreted reference raises first.
# ----------------------------------------------------------------------
def lower_values(exprs: Sequence[object], layout: RowLayout):
    """``(cols, n) -> one value vector per expression`` over ``n`` rows.

    An ``int`` among ``exprs`` is a column position (a star expansion).  A
    bare column passes its vector through.  The reference evaluates items
    row-major, so the error raised is the minimum over (row, item).
    """
    lowered = [
        expr if isinstance(expr, int) else _lower_value(expr, layout)
        for expr in exprs
    ]

    def values(cols, n: int) -> List[Sequence[object]]:
        vectors: List[Sequence[object]] = []
        first_err: Optional[Tuple[int, BaseException]] = None
        for item in lowered:
            vector, err = _vector_of(item, cols, n)
            # Strictly earlier rows only: on a tie the leftmost item wins.
            if err is not None and (first_err is None or err[0] < first_err[0]):
                first_err = err
            vectors.append(vector)
        if first_err is not None:
            raise first_err[1]
        return vectors

    return values


def lower_filter(predicate: Expr, layout: RowLayout):
    """``(cols, n) -> the positions in range(n) where predicate is TRUE``."""
    kernel = compile_vector_filter(predicate, layout)

    def kept(cols, n: int) -> List[int]:
        batch = VectorizedExecutor.BATCH_SIZE
        positions: List[int] = []
        for start in range(0, n, batch):
            passing, errs = kernel(cols, range(start, min(start + batch, n)))
            if errs:
                # The earliest error in row order: exactly what the
                # reference row loop raises (rows past it never evaluate
                # there, but kernels are pure, so that is unobservable).
                raise errs[0][1]
            positions.extend(passing)
        return positions

    return kept


def lower_aggregate(
    group_exprs: Sequence[Expr], aggregates: Sequence[FuncCall], layout: RowLayout
):
    """``(cols, n) -> (group key columns + aggregate columns, group count)``.

    Groups come out in first-seen order; a scalar aggregate (no group
    expressions) over nothing is one group.  Any error or typing surprise —
    a deferred evaluation error, an unhashable key, a non-numeric SUM,
    mixed-type MIN/MAX — re-runs :func:`group_rows_reference`, which visits
    rows in the interpreted order and so raises the reference's exception
    (or, for a case the fast path does not model, gives the reference's
    result).
    """
    key_lowered = [_lower_value(expr, layout) for expr in group_exprs]
    arg_lowered = [
        None
        if aggregate.star or len(aggregate.args) != 1
        else _lower_value(aggregate.args[0], layout)
        for aggregate in aggregates
    ]
    width = len(group_exprs) + len(aggregates)

    def aggregate(cols, n: int):
        try:
            return _aggregate_fast(aggregates, key_lowered, arg_lowered, cols, n)
        except Exception:
            rows = rows_from_vectors(cols, n)
            out_rows = group_rows_reference(group_exprs, aggregates, layout, rows)
            return vectors_from_rows(out_rows, width), len(out_rows)

    return aggregate


def _aggregate_fast(aggregates, key_lowered, arg_lowered, cols, n: int):
    for aggregate in aggregates:
        if not aggregate.star and len(aggregate.args) != 1 and n:
            raise _FallbackToReference  # per-row arity error
    vectors: List[Optional[Sequence[object]]] = []
    for lowered in key_lowered + arg_lowered:
        if lowered is None:
            vectors.append(None)
            continue
        values, first_err = _vector_of(lowered, cols, n)
        if first_err is not None:
            raise _FallbackToReference
        vectors.append(values)
    key_vectors = vectors[: len(key_lowered)]
    arg_vectors = vectors[len(key_lowered) :]

    if key_vectors:
        # A dense group id per row.  ``dict.fromkeys`` keeps the first of
        # equal keys in first-occurrence order, which is the key and the
        # order the reference loop outputs.
        one = len(key_vectors) == 1
        keys = key_vectors[0] if one else list(zip(*key_vectors))
        groups = dict.fromkeys(keys)
        ngroups = len(groups)
        key_columns = (
            [list(groups)]
            if one
            else vectors_from_rows(list(groups), len(key_vectors))
        )
        group_ids = list(map(dict(zip(groups, range(ngroups))).__getitem__, keys))
    else:
        # A scalar aggregate: one group, even over empty input.
        group_ids = [0] * n
        ngroups = 1
        key_columns = []

    agg_columns = [
        _accumulate(aggregate, arg, group_ids, ngroups)
        for aggregate, arg in zip(aggregates, arg_vectors)
    ]
    return key_columns + agg_columns, ngroups


def _accumulate(aggregate, arg, group_ids, ngroups: int) -> List[object]:
    """One aggregate over all groups in a single tight pass.

    Accumulation visits rows in order, so float SUM/AVG reproduce the
    reference path's addition sequence bit for bit.
    """
    name = aggregate.name.lower()
    if aggregate.star:
        counts = [0] * ngroups
        for gid in group_ids:
            counts[gid] += 1
        return counts
    seen: Optional[List[set]] = (
        [set() for _ in range(ngroups)] if aggregate.distinct else None
    )
    if name == "count":
        counts = [0] * ngroups
        for gid, value in zip(group_ids, arg):
            if value is None:
                continue
            if seen is not None:
                bucket = seen[gid]
                if value in bucket:
                    continue
                bucket.add(value)
            counts[gid] += 1
        return counts
    if name in ("sum", "avg"):
        if (
            ngroups == 1
            and seen is None
            and arg
            and set(map(type, arg)) <= NUMERIC_KINDS
        ):
            # One group of plain numbers: the same left-to-right
            # additions in one C-level fold.  Not ``sum``, which starts
            # from 0 (``-0.0`` would become ``0.0``) and compensates
            # float addition from Python 3.12 on.
            totals: List[object] = [reduce(add, arg)]
            counts = [len(arg)]
        else:
            totals, counts = [None] * ngroups, [0] * ngroups
            for gid, value in zip(group_ids, arg):
                if value is None:
                    continue
                if seen is not None:
                    bucket = seen[gid]
                    if value in bucket:
                        continue
                    bucket.add(value)
                if not isinstance(value, (int, float)):
                    raise _FallbackToReference  # reference raises per row
                counts[gid] += 1
                total = totals[gid]
                totals[gid] = value if total is None else total + value
        if name == "sum":
            return totals
        return [
            None if count == 0 else total / count
            for total, count in zip(totals, counts)
        ]
    if name == "min":
        best: List[object] = [None] * ngroups
        for gid, value in zip(group_ids, arg):
            if value is None:
                continue
            if seen is not None:
                bucket = seen[gid]
                if value in bucket:
                    continue
                bucket.add(value)
            current = best[gid]
            if current is None or value < current:
                best[gid] = value
        return best
    if name == "max":
        best = [None] * ngroups
        for gid, value in zip(group_ids, arg):
            if value is None:
                continue
            if seen is not None:
                bucket = seen[gid]
                if value in bucket:
                    continue
                bucket.add(value)
            current = best[gid]
            if current is None or value > current:
                best[gid] = value
        return best
    raise _FallbackToReference  # unknown aggregate: reference raises


def _filter_columns(kept, cols, n: int):
    positions = kept(cols, n)
    if len(positions) == n:
        return cols, n
    return gather(cols, positions), len(positions)


def _lowered(node, columns, lower):
    """``lower()`` for ``node``, computed once per plan and input layout.

    A cached or shipped plan runs many times against the same columns, so
    the result lives on the node; ``columns`` differing from what it was
    lowered against (another catalogue's column order) lowers it again.
    """
    memo = node.lowered
    if memo is None or memo[0] != columns:
        memo = node.lowered = (columns, lower())
    return memo[1]


def _probe_pairs(probe_keys, ln: int, index, distinct: bool):
    """The ``(left, right)`` pairs of probing ``index``, a build column's
    :func:`~repro.sqlengine.batch.positions_by_key`, by left then build
    order."""
    if distinct:
        # One probe per row finds the only candidate, or nothing.
        found = list(map(index.get, probe_keys))
        if None not in found:
            return range(ln), found
        hit = list(map(is_not, found, repeat(None)))
        return list(compress(range(ln), hit)), list(compress(found, hit))
    found = list(map(index.get, probe_keys, repeat(())))
    return (
        [i for i, matches in enumerate(found) for _ in matches],
        list(chain.from_iterable(found)),
    )


def _matching_parts(left_idx, right_idx, left_parts, right_parts):
    """The pairs whose values in each of ``left_parts`` and the matching
    ``right_parts`` column meet as a tuple key's elements do: ``a is b or
    a == b`` (1, 1.0 and True meet; a NaN meets only itself), and NULL on
    either side meets nothing.

    Only NULL equals NULL, and only a NaN is unequal to itself; so the NULL
    mask matters only where the build column holds NULL, and the identity
    test only where it holds a NaN.  One pass over the build column decides
    each, instead of one over every pair.
    """
    for left_part, right_part in zip(left_parts, right_parts):
        lefts = list(map(left_part.__getitem__, left_idx))
        rights = list(map(right_part.__getitem__, right_idx))
        keep = map(eq, lefts, rights)
        if not all(map(eq, right_part, right_part)):
            keep = map(or_, map(is_, lefts, rights), keep)
        if None in right_part:
            keep = map(and_, keep, map(is_not, rights, repeat(None)))
        keep = list(keep)
        if not all(keep):
            left_idx = list(compress(left_idx, keep))
            right_idx = list(compress(right_idx, keep))
    return left_idx, right_idx


class VectorizedExecutor:
    """Executes plan trees batch-at-a-time against a table catalogue."""

    #: Rows per predicate-evaluation chunk.  Large enough to amortize the
    #: per-batch kernel dispatch, small enough that selection vectors and
    #: intermediate value vectors stay cache-resident.
    BATCH_SIZE = 1024

    def __init__(self, catalog: Dict[str, Table]) -> None:
        self._catalog = catalog

    def execute(self, plan: object, stats: Optional[ExecStats] = None):
        """Run ``plan``; returns ``(layout, batch, stats)``.

        The result stays columnar past the plan boundary: the
        :class:`ColumnBatch` derives row tuples only if a consumer asks.
        """
        stats = stats if stats is not None else ExecStats()
        layout, cols, n = self._execute(plan, stats)
        stats.rows_output = n
        return layout, ColumnBatch(layout.columns, cols, n), stats

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _execute(self, plan: object, stats: ExecStats):
        if isinstance(plan, ScanNode):
            return self._execute_scan(plan, stats)
        if isinstance(plan, FilterNode):
            return self._execute_filter(plan, stats)
        if isinstance(plan, JoinNode):
            return self._execute_join(plan, stats)
        if isinstance(plan, GroupByNode):
            return self._execute_group_by(plan, stats)
        if isinstance(plan, ProjectNode):
            return self._execute_project(plan, stats)
        if isinstance(plan, DistinctNode):
            return self._execute_distinct(plan, stats)
        if isinstance(plan, SortNode):
            return self._execute_sort(plan, stats)
        if isinstance(plan, LimitNode):
            return self._execute_limit(plan, stats)
        raise SqlExecutionError(f"unknown plan node: {type(plan).__name__}")

    # ------------------------------------------------------------------
    # Scans / filter
    # ------------------------------------------------------------------
    def _execute_scan(self, node: ScanNode, stats: ExecStats):
        table = self._catalog[node.table]

        def lower():
            layout = RowLayout(
                [f"{node.binding}.{column}" for column in table.schema.column_names]
            )
            if node.predicate is None:
                return layout, None
            return layout, lower_filter(node.predicate, layout)

        layout, kept = _lowered(node, table.schema.columns, lower)
        if node.index_access is not None:
            # Late materialisation: a column is gathered from the table's
            # own lists when an operator first reads it (a row id is a
            # position in them).
            row_ids = index_ids(table, node.index_access, stats)
            cols: Sequence[Sequence[object]] = gather(table.column_data(), row_ids)
            n = len(row_ids)
        else:
            # The dense path reads the table's column lists directly;
            # downstream operators never mutate input columns.
            cols = table.column_data()
            n = len(table)
            stats.rows_scanned += n
        if kept is not None:
            cols, n = _filter_columns(kept, cols, n)
        return layout, cols, n

    def _execute_filter(self, node: FilterNode, stats: ExecStats):
        layout, cols, n = self._execute(node.child, stats)
        kept = _lowered(
            node, layout.columns, lambda: lower_filter(node.predicate, layout)
        )
        cols, n = _filter_columns(kept, cols, n)
        return layout, cols, n

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _execute_join(self, node: JoinNode, stats: ExecStats):
        left_layout, left_cols, ln = self._execute(node.left, stats)
        right_layout, right_cols, rn = self._execute(node.right, stats)

        def lower():
            layout = left_layout.concat(right_layout)
            return (
                layout,
                [left_layout.resolve(key) for key, _ in node.equi_keys],
                [right_layout.resolve(key) for _, key in node.equi_keys],
                None
                if node.condition is None
                else lower_filter(node.condition, layout),
            )

        layout, left_positions, right_positions, condition = _lowered(
            node, (left_layout.columns, right_layout.columns), lower
        )
        if node.equi_keys:
            left_idx, right_idx = self._hash_join_pairs(
                [left_cols[position] for position in left_positions], ln,
                [right_cols[position] for position in right_positions], rn,
                stats,
            )
            if condition is not None and left_idx:
                # The residual condition reads candidate pairs in place.
                pairs = gather(left_cols, left_idx) + gather(right_cols, right_idx)
                kept = condition(pairs, len(left_idx))
                if len(kept) < len(left_idx):
                    left_idx = list(map(left_idx.__getitem__, kept))
                    right_idx = list(map(right_idx.__getitem__, kept))
        else:
            left_idx, right_idx = self._nested_loop_pairs(
                condition, left_cols, ln, right_cols, rn, stats
            )
        unmatched = (
            sorted(set(range(ln)).difference(left_idx))
            if node.kind == "left"
            else None
        )
        if unmatched:
            # Null-padded unmatched left rows go where the probe met them,
            # like the reference loop: pairs are sorted by left index by
            # construction, and a stable sort keeps each row's match order.
            left_idx = list(left_idx) + unmatched
            right_idx = list(right_idx) + [-1] * len(unmatched)  # pad marker
            order = sorted(range(len(left_idx)), key=left_idx.__getitem__)
            left_idx = list(map(left_idx.__getitem__, order))
            right_idx = list(map(right_idx.__getitem__, order))
        # Index vectors over the two inputs: a column is gathered when a
        # consumer first reads it.
        out_cols = gather(left_cols, left_idx) + gather(
            right_cols, right_idx, padded=bool(unmatched)
        )
        return layout, out_cols, len(left_idx)

    @staticmethod
    def _hash_join_pairs(probe_parts, ln: int, build_parts, rn: int, stats):
        """Matching ``(left, right)`` positions, by left then build order.

        The build side is the right input, like the reference executor.  The
        key's first build column that is distinct on its own is probed, its
        one dict being the proof, else the column with the most distinct
        values, bucketed; the other parts are compared at the candidate
        pairs.  Each probe row meets the build rows whose parts all equal
        its own, in build order: the pairs of probing the whole key as a
        tuple, with no tuple built.
        """
        stats.join_build_rows += rn
        stats.join_probe_rows += ln
        sizes = []
        for part, column in enumerate(build_parts):
            index = dict(zip(column, count()))
            if len(index) == rn:
                distinct = True
                break
            sizes.append(len(index))
        else:
            # the column with the most keys gives the fewest candidates
            part = sizes.index(max(sizes))
            index, distinct = positions_by_key(build_parts[part], 0)
        index.pop(None, None)  # a NULL key part matches nothing
        left_idx, right_idx = _probe_pairs(probe_parts[part], ln, index, distinct)
        others = [k for k in range(len(build_parts)) if k != part]
        return _matching_parts(
            left_idx,
            right_idx,
            [probe_parts[k] for k in others],
            [build_parts[k] for k in others],
        )

    def _nested_loop_pairs(self, condition, left_cols, ln, right_cols, rn, stats):
        left_idx: List[int] = []
        right_idx: List[int] = []
        for i in range(ln):
            stats.join_probe_rows += rn
            if rn == 0:
                continue
            if condition is None:
                left_idx.extend([i] * rn)
                right_idx.extend(range(rn))
                continue
            # One left row against the whole right side: broadcast the left
            # values, pass the right columns through untouched.
            combined = [[col[i]] * rn for col in left_cols]
            combined.extend(right_cols)
            matches = condition(combined, rn)
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
        return left_idx, right_idx

    # ------------------------------------------------------------------
    # Group by / aggregation
    # ------------------------------------------------------------------
    def _execute_group_by(self, node: GroupByNode, stats: ExecStats):
        child_layout, cols, n = self._execute(node.child, stats)
        layout, aggregate = _lowered(
            node,
            child_layout.columns,
            lambda: (
                group_output_layout(node, child_layout),
                lower_aggregate(node.group_exprs, node.aggregates, child_layout),
            ),
        )
        out_cols, count = aggregate(cols, n)
        return layout, out_cols, count

    # ------------------------------------------------------------------
    # Project / distinct / sort / limit
    # ------------------------------------------------------------------
    def _execute_project(self, node: ProjectNode, stats: ExecStats):
        child_layout, cols, n = self._execute(node.child, stats)

        def lower():
            names, outputs = projection(node.items, child_layout)
            return RowLayout(names), lower_values(outputs, child_layout)

        layout, values = _lowered(node, child_layout.columns, lower)
        return layout, values(cols, n), n

    def _execute_distinct(self, node: DistinctNode, stats: ExecStats):
        layout, cols, n = self._execute(node.child, stats)
        # The whole row is the distinct key, so this operator is inherently
        # tuple-shaped: transpose, dedup in first-occurrence order, and
        # return to columns.
        rows = rows_from_vectors(cols, n)
        deduped = list(dict.fromkeys(rows))
        return layout, vectors_from_rows(deduped, len(layout)), len(deduped)

    def _execute_sort(self, node: SortNode, stats: ExecStats):
        layout, cols, n = self._execute(node.child, stats)
        items = node.order_items
        keys = _lowered(
            node,
            layout.columns,
            lambda: lower_values([item.expr for item in items], layout),
        )
        return layout, gather(cols, sort_order(keys(cols, n), items, n)), n

    def _execute_limit(self, node: LimitNode, stats: ExecStats):
        layout, cols, n = self._execute(node.child, stats)
        if node.limit is None or n <= node.limit:
            return layout, cols, n
        sliced = [col[: node.limit] for col in cols]
        return layout, sliced, (len(sliced[0]) if sliced else 0)
