"""Batch-at-a-time plan executor over column-major data.

Mirrors :class:`repro.sqlengine.executor.Executor` node for node, but every
operator consumes and produces ``(RowLayout, columns, row_count)`` — a list
of column vectors instead of a list of row tuples.  Dense base-table scans
read :meth:`Table.column_data` straight out of storage with zero copying;
predicates narrow selection vectors in ``batch_size`` chunks via
:mod:`repro.sqlengine.vectorize` kernels; joins build and probe over key
vectors and carry ``(left, right)`` index pairs instead of materialized
tuples; aggregation runs tight per-column accumulation loops.  The plan's
output leaves as a :class:`ColumnBatch`; row tuples exist only under an
index scan's lazily built columns and inside the two inherently tuple-keyed
operators, DISTINCT and the group-by fallback.

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

import operator
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.sqlengine.batch import (
    NUMERIC_KINDS,
    ColumnBatch,
    LazyColumns,
    rows_from_vectors,
    vectors_from_rows,
)
from repro.sqlengine.compile import compile_evaluator
from repro.sqlengine.executor import (
    ExecStats,
    _sort_key,
    group_output_layout,
    group_rows_reference,
    index_rows,
)
from repro.sqlengine.expr import ColumnRef, RowLayout
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
    """Internal: the group-by fast path punts to the reference loop."""


def _passthrough_position(expr, layout: RowLayout) -> Optional[int]:
    """The column position for a bare column reference, else None.

    Bare references are the overwhelmingly common projection/sort/group
    key, and resolving them once lets the existing column vector pass
    through with no copy and no kernel.  Unresolvable names return None so
    the kernel path can defer the error in reference row order.
    """
    if isinstance(expr, ColumnRef):
        try:
            return layout.resolve(expr.name)
        except SqlExecutionError:
            return None
    return None


class VectorizedExecutor:
    """Executes plan trees batch-at-a-time against a table catalogue."""

    #: Rows per predicate-evaluation chunk.  Large enough to amortize the
    #: per-batch kernel dispatch, small enough that selection vectors and
    #: intermediate value vectors stay cache-resident.
    DEFAULT_BATCH_SIZE = 1024

    def __init__(
        self, catalog: Dict[str, Table], batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        if batch_size <= 0:
            raise SqlExecutionError(f"batch size must be positive: {batch_size}")
        self._catalog = catalog
        self._batch_size = batch_size

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
        layout = RowLayout(
            [f"{node.binding}.{column}" for column in table.schema.column_names]
        )
        if node.index_access is not None:
            # Late materialisation: a column is built when an operator
            # first reads it, from the row store (ids need no id->position
            # map over tombstones, and no owner builds a mirror for this).
            rows = index_rows(table, node.index_access, stats)
            cols: Sequence[Sequence[object]] = LazyColumns(rows, len(layout))
            n = len(rows)
        else:
            # The dense path reads the table's columnar mirror directly;
            # downstream operators never mutate input columns.
            cols = table.column_data()
            n = len(table)
            stats.rows_scanned += n
        if node.predicate is not None:
            cols, n = self._filter_columns(node.predicate, layout, cols, n)
        return layout, cols, n

    def _execute_filter(self, node: FilterNode, stats: ExecStats):
        layout, cols, n = self._execute(node.child, stats)
        cols, n = self._filter_columns(node.predicate, layout, cols, n)
        return layout, cols, n

    def _filter_columns(self, predicate, layout: RowLayout, cols, n: int):
        kernel = compile_vector_filter(predicate, layout)
        batch = self._batch_size
        kept: List[int] = []
        for start in range(0, n, batch):
            passing, errs = kernel(cols, range(start, min(start + batch, n)))
            if errs:
                # The earliest error in row order: exactly what the
                # reference row loop raises (rows past it never evaluate
                # there, but kernels are pure, so that is unobservable).
                raise errs[0][1]
            kept.extend(passing)
        if len(kept) == n:
            return cols, n
        if isinstance(cols, LazyColumns):
            return cols.take(kept), len(kept)
        return [[col[i] for i in kept] for col in cols], len(kept)

    def _run_kernel_chunked(self, kernel, cols, n: int):
        """Evaluate a value kernel over all ``n`` rows in batch-size chunks.

        Returns ``(values, first_error)`` where ``first_error`` is the
        earliest deferred ``(row, exception)`` or None.
        """
        batch = self._batch_size
        if n <= batch:
            values, errs = kernel(cols, range(n))
            return values, (errs[0] if errs else None)
        values: List[object] = []
        first_err = None
        for start in range(0, n, batch):
            chunk_values, errs = kernel(cols, range(start, min(start + batch, n)))
            values.extend(chunk_values)
            if errs and first_err is None:
                first_err = errs[0]
        return values, first_err

    def _value_vector(self, expr, layout: RowLayout, cols, n: int):
        """A value vector for ``expr``: column passthrough or kernel run."""
        position = _passthrough_position(expr, layout)
        if position is not None:
            return cols[position], None
        return self._run_kernel_chunked(
            compile_vector_evaluator(expr, layout), cols, n
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _execute_join(self, node: JoinNode, stats: ExecStats):
        left_layout, left_cols, ln = self._execute(node.left, stats)
        right_layout, right_cols, rn = self._execute(node.right, stats)
        layout = left_layout.concat(right_layout)
        if node.equi_keys:
            left_idx, right_idx = self._hash_join_pairs(
                node, left_layout, left_cols, ln,
                right_layout, right_cols, rn, layout, stats,
            )
        else:
            left_idx, right_idx = self._nested_loop_pairs(
                node, left_cols, ln, right_cols, rn, layout, stats
            )
        if node.kind == "left":
            # Interleave null-padded unmatched left rows in probe order,
            # like the reference loop.  Matched pair lists are sorted by
            # left index by construction.
            padded_left: List[int] = []
            padded_right: List[int] = []
            p, npairs = 0, len(left_idx)
            for i in range(ln):
                matched = False
                while p < npairs and left_idx[p] == i:
                    padded_left.append(i)
                    padded_right.append(right_idx[p])
                    p += 1
                    matched = True
                if not matched:
                    padded_left.append(i)
                    padded_right.append(-1)  # null pad marker
            left_idx, right_idx = padded_left, padded_right
            out_cols = [[col[i] for i in left_idx] for col in left_cols]
            for col in right_cols:
                out_cols.append(
                    [None if j < 0 else col[j] for j in right_idx]
                )
        else:
            out_cols = [[col[i] for i in left_idx] for col in left_cols]
            out_cols.extend([col[j] for j in right_idx] for col in right_cols)
        return layout, out_cols, len(left_idx)

    def _hash_join_pairs(
        self, node, left_layout, left_cols, ln,
        right_layout, right_cols, rn, layout, stats,
    ):
        left_positions = [
            left_layout.resolve(left_key) for left_key, _ in node.equi_keys
        ]
        right_positions = [
            right_layout.resolve(right_key) for _, right_key in node.equi_keys
        ]
        # Build on the right side, like the reference executor.
        buckets: Dict[object, List[int]] = {}
        if len(right_positions) == 1:
            key_col = right_cols[right_positions[0]]
            for j in range(rn):
                key = key_col[j]
                if key is not None:
                    buckets.setdefault(key, []).append(j)
        else:
            key_cols = [right_cols[position] for position in right_positions]
            for j in range(rn):
                key = tuple(col[j] for col in key_cols)
                if any(part is None for part in key):
                    continue
                buckets.setdefault(key, []).append(j)
        stats.join_build_rows += rn

        left_idx: List[int] = []
        right_idx: List[int] = []
        get = buckets.get
        if len(left_positions) == 1:
            key_col = left_cols[left_positions[0]]
            for i in range(ln):
                key = key_col[i]
                if key is None:
                    continue
                matches = get(key)
                if matches:
                    for j in matches:
                        left_idx.append(i)
                        right_idx.append(j)
        else:
            key_cols = [left_cols[position] for position in left_positions]
            for i in range(ln):
                key = tuple(col[i] for col in key_cols)
                if any(part is None for part in key):
                    continue
                matches = get(key)
                if matches:
                    for j in matches:
                        left_idx.append(i)
                        right_idx.append(j)
        stats.join_probe_rows += ln
        if node.condition is not None and left_idx:
            left_idx, right_idx = self._filter_pairs(
                node.condition, layout, left_cols, right_cols, left_idx, right_idx
            )
        return left_idx, right_idx

    def _nested_loop_pairs(
        self, node, left_cols, ln, right_cols, rn, layout, stats
    ):
        condition = (
            None
            if node.condition is None
            else compile_vector_filter(node.condition, layout)
        )
        left_idx: List[int] = []
        right_idx: List[int] = []
        batch = self._batch_size
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
            matches: List[int] = []
            for start in range(0, rn, batch):
                passing, errs = condition(
                    combined, range(start, min(start + batch, rn))
                )
                if errs:
                    raise errs[0][1]
                matches.extend(passing)
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
        return left_idx, right_idx

    def _filter_pairs(
        self, condition, layout, left_cols, right_cols, left_idx, right_idx
    ):
        """Apply a residual join condition over candidate pairs."""
        npairs = len(left_idx)
        pair_cols = [[col[i] for i in left_idx] for col in left_cols]
        pair_cols.extend([col[j] for j in right_idx] for col in right_cols)
        kernel = compile_vector_filter(condition, layout)
        batch = self._batch_size
        survivors: List[int] = []
        for start in range(0, npairs, batch):
            passing, errs = kernel(
                pair_cols, range(start, min(start + batch, npairs))
            )
            if errs:
                raise errs[0][1]
            survivors.extend(passing)
        if len(survivors) == npairs:
            return left_idx, right_idx
        return (
            [left_idx[p] for p in survivors],
            [right_idx[p] for p in survivors],
        )

    # ------------------------------------------------------------------
    # Group by / aggregation
    # ------------------------------------------------------------------
    def _execute_group_by(self, node: GroupByNode, stats: ExecStats):
        child_layout, cols, n = self._execute(node.child, stats)
        try:
            return self._group_by_fast(node, child_layout, cols, n)
        except Exception:
            # Any trouble on the fast path — a deferred evaluation error,
            # an unhashable key, a non-numeric SUM, mixed-type MIN/MAX —
            # re-runs the reference row-at-a-time loop, which visits rows
            # in the exact interpreted order and therefore raises the
            # exact reference exception (or, for recoverable cases the
            # fast path doesn't model, produces the reference result).
            rows = rows_from_vectors(cols, n)
            layout, out_rows = group_rows_reference(
                node, child_layout, rows, compile_evaluator
            )
            return layout, vectors_from_rows(out_rows, len(layout)), len(out_rows)

    def _group_by_fast(self, node: GroupByNode, child_layout, cols, n: int):
        layout = group_output_layout(node, child_layout)
        for aggregate in node.aggregates:
            if not aggregate.star and len(aggregate.args) != 1 and n:
                raise _FallbackToReference  # per-row arity error
        key_vectors: List[List[object]] = []
        for expr in node.group_exprs:
            values, first_err = self._value_vector(expr, child_layout, cols, n)
            if first_err is not None:
                raise _FallbackToReference
            key_vectors.append(values)
        arg_vectors: List[Optional[List[object]]] = []
        for aggregate in node.aggregates:
            if aggregate.star or len(aggregate.args) != 1:
                arg_vectors.append(None)
                continue
            values, first_err = self._value_vector(
                aggregate.args[0], child_layout, cols, n
            )
            if first_err is not None:
                raise _FallbackToReference
            arg_vectors.append(values)

        # Assign a dense group id per row, first-occurrence order.
        if node.group_exprs:
            if len(key_vectors) == 1:
                keys: Sequence[object] = key_vectors[0]
            else:
                keys = list(zip(*key_vectors))
            group_index: Dict[object, int] = {}
            group_ids = [0] * n
            first_rows: List[int] = []
            for k in range(n):
                key = keys[k]
                gid = group_index.get(key, -1)
                if gid < 0:
                    gid = len(first_rows)
                    group_index[key] = gid
                    first_rows.append(k)
                group_ids[k] = gid
            ngroups = len(first_rows)
            key_columns = [
                [vector[row] for row in first_rows] for vector in key_vectors
            ]
        else:
            # A scalar aggregate: one group, even over empty input.
            group_ids = [0] * n
            ngroups = 1
            key_columns = []

        agg_columns = [
            self._accumulate(aggregate, arg, group_ids, ngroups)
            for aggregate, arg in zip(node.aggregates, arg_vectors)
        ]
        return layout, key_columns + agg_columns, ngroups

    @staticmethod
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
                totals: List[object] = [reduce(operator.add, arg)]
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

    # ------------------------------------------------------------------
    # Project / distinct / sort / limit
    # ------------------------------------------------------------------
    def _execute_project(self, node: ProjectNode, stats: ExecStats):
        child_layout, cols, n = self._execute(node.child, stats)
        output_names: List[str] = []
        # Star expansions pass child columns straight through (an int
        # position); everything else lowers to a vector kernel.
        outputs: List[object] = []
        for item in node.items:
            if item.is_star:
                for position, column in enumerate(child_layout.columns):
                    if item.star_qualifier is not None and not column.startswith(
                        item.star_qualifier + "."
                    ):
                        continue
                    output_names.append(column)
                    outputs.append(position)
                continue
            output_names.append(item.output_name().lower())
            position = _passthrough_position(item.expr, child_layout)
            outputs.append(
                position
                if position is not None
                else compile_vector_evaluator(item.expr, child_layout)
            )
        layout = RowLayout(output_names)
        out_cols: List[Sequence[object]] = []
        first_err: Optional[Tuple[int, int, BaseException]] = None
        for index, output in enumerate(outputs):
            if isinstance(output, int):
                out_cols.append(cols[output])
                continue
            values, err = self._run_kernel_chunked(output, cols, n)
            # The reference path evaluates items row-major, so the first
            # exception is the minimum over (row, item position).
            if err is not None and (
                first_err is None or (err[0], index) < (first_err[0], first_err[1])
            ):
                first_err = (err[0], index, err[1])
            out_cols.append(values)
        if first_err is not None:
            raise first_err[2]
        return layout, out_cols, n

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
        key_vectors: List[List[object]] = []
        first_err: Optional[Tuple[int, int, BaseException]] = None
        for index, item in enumerate(items):
            values, err = self._value_vector(item.expr, layout, cols, n)
            if err is not None and (
                first_err is None or (err[0], index) < (first_err[0], first_err[1])
            ):
                first_err = (err[0], index, err[1])
            key_vectors.append(values)
        if first_err is not None:
            raise first_err[2]
        order = list(range(n))
        # Stable sorts applied last-to-first compose to the reference
        # ordering for mixed ASC/DESC; sorting an index vector by a
        # precomputed key vector replaces per-row key tuples.
        for index in range(len(items) - 1, -1, -1):
            sortable = [_sort_key(value) for value in key_vectors[index]]
            order.sort(
                key=sortable.__getitem__, reverse=not items[index].ascending
            )
        return layout, [[col[i] for i in order] for col in cols], n

    def _execute_limit(self, node: LimitNode, stats: ExecStats):
        layout, cols, n = self._execute(node.child, stats)
        if node.limit is None or n <= node.limit:
            return layout, cols, n
        sliced = [col[: node.limit] for col in cols]
        return layout, sliced, (len(sliced[0]) if sliced else 0)
