"""The basic query processing engine: fetch and process (§5.2).

The query submitted at peer P is evaluated in two steps:

1. **fetching** — the query is decomposed into single-table subqueries
   (selections/projections pushed down) which are sent to the data-owner
   peers found through the BATON indexes; intermediate results are shuffled
   back to P,
2. **processing** — P stages the fetched tuples in MemTables, bulk-inserts
   them into its local database, and evaluates the original query locally.
   Here the final plan scans the fetched batches in place; the staging is
   charged in simulated seconds and counted in MemTable spills.

Optimizations, as in the paper:

* cached index entries avoid BATON traversals on repeat lookups,
* **bloom join** reduces the bytes shipped for equi-joins: the base side's
  join keys build a Bloom filter that is sent to the other side's owners,
  which ship only (probably-)matching tuples,
* the **single-peer optimization** (§6.2.3): when one normal peer hosts all
  required data, the entire SQL goes to that peer and the processing phase
  is skipped.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress, count
from operator import is_
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.accesscheck import require_unrestricted_read, unrestricted_read
from repro.core.bloom import BloomFilter
from repro.core.execution import EngineContext, QueryExecution, makespan, prepare_once
from repro.core.indexer import PeerLookup
from repro.core.predicates import range_constraint
from repro.errors import SqlCatalogError
from repro.mapreduce.engine import records_byte_size
from repro.plan.driver import (
    aggregate_rows,
    finalize_records,
    merge_partial_rows,
)
from repro.plan.sms import (
    DistributedPlan,
    SmsPlanner,
    TableLocalPlan,
    partial_aggregate_plan,
)
from repro.sqlengine.batch import ColumnBatch, ColumnRelation
from repro.sqlengine.database import QueryResult
from repro.sqlengine.parser import SelectStmt, parse
from repro.sqlengine.planner import split_conjuncts
from repro.sqlengine.vexecutor import VectorizedExecutor


def _wire_bytes(shipped: ColumnBatch, local_plan: TableLocalPlan) -> int:
    """What ``shipped`` costs on the wire.

    Table columns are priced a column at a time, once per batch.  A
    pushed-down partial aggregate ships a few derived records instead of
    table columns; those are priced as records, as the other engines do.
    """
    if local_plan.columns:
        return shipped.byte_size
    return records_byte_size(shipped.rows)


def _process_fetched(
    planner: SmsPlanner,
    plan: DistributedPlan,
    fetched: Dict[str, List[ColumnBatch]],
    capacity: int,
) -> Tuple[QueryResult, int, int]:
    """The processing phase (§5.2) over the batches fetched per binding:
    the final result, and the MemTable spills and rows that staging them
    in MemTables of ``capacity`` bytes costs.  The final plan scans each
    binding's batches in place.

    A batch never changes, so processing is a function of the batch
    objects and ``capacity``: the plan keeps its last run, and a repeat
    over the same objects (``is``) at the same capacity replays the same
    immutable batch with a fresh copy of its ``ExecStats`` (DESIGN.md §5
    decision 20).  Errors are not kept."""
    held = tuple(tuple(fetched[local_plan.binding]) for local_plan in plan.local_plans)
    last = plan.last_processed
    if (
        last is not None
        and last[1] == capacity
        and all(
            len(was) == len(now) and all(map(is_, was, now))
            for was, now in zip(last[0], held)
        )
    ):
        _, _, batch, stats, spills, staged = last
        return QueryResult(batch, replace(stats)), spills, staged
    schemas, processing = planner.processing_plan(plan)
    catalog: Dict[str, ColumnRelation] = {}
    spills = 0
    for local_plan, schema, batches in zip(plan.local_plans, schemas, held):
        catalog[local_plan.binding] = relation = ColumnRelation(schema, batches)
        spills += _spills(relation, batches, capacity)
    _, batch, stats = VectorizedExecutor(catalog).execute(processing)
    staged = sum(map(len, catalog.values()))
    plan.last_processed = held, capacity, batch, replace(stats), spills, staged
    return QueryResult(batch, stats), spills, staged


def _spills(relation: ColumnRelation, batches: Sequence[ColumnBatch], capacity: int) -> int:
    """How often a MemTable of ``capacity`` bytes spills staging ``relation``,
    the fetched ``batches``: where a row buffer would, each time the typed
    size of the rows buffered since the last spill reaches ``capacity``, and
    at the closing flush if rows are left.  A value that coercion passes as
    it is costs no more typed than on the wire, so under ``capacity`` wire
    bytes the closing flush is the only spill."""
    if not relation.retyped and sum(batch.byte_size for batch in batches) < capacity:
        return int(len(relation) > 0)
    spills = buffered = 0
    for size in map(sum, zip(*[  # every row costs at least one byte
        map(column.column_type.byte_size, vector)
        for column, vector in zip(relation.schema.columns, relation.column_data())
    ])):
        buffered += size
        if buffered >= capacity:
            spills, buffered = spills + 1, 0
    return spills + (buffered > 0)


class BasicEngine:
    """Fetch-and-process execution from one query-submitting peer."""

    def __init__(self, context: EngineContext) -> None:
        self.context = context

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        user: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> QueryExecution:
        # ``parse`` by this module's name: tracers patch the binding here.
        stmt, plan = self.context.planner.compile_text(sql, parse)

        # Locate data owners for every table, using the best index available.
        lookups = self._locate_tables(stmt, plan)
        index_hops = sum(lookup.hops for lookup in lookups.values())

        all_peers: Set[str] = set()
        for lookup in lookups.values():
            all_peers.update(lookup.peers)
        self.context.require_online(sorted(all_peers))

        # The single-peer optimization ships the *original* SQL, so no
        # per-row access rewriting can happen; it only applies when the
        # user's role could not have masked anything (§4.4), otherwise the
        # query falls through to the fetch paths that mask at the owners.
        if len(all_peers) == 1 and unrestricted_read(
            self.context.peers, plan.local_plans, all_peers, user
        ):
            return self._single_peer(
                # repro: allow[SIM003] singleton set, the one element is the same in every run
                sql, plan, next(iter(all_peers)), index_hops, user, timestamp
            )
        if not plan.joins:
            return self._single_table(plan, lookups, index_hops, user, timestamp)
        return self._fetch_and_process(plan, lookups, index_hops, user, timestamp)

    # ------------------------------------------------------------------
    # Single-table queries: push the whole subquery to every owner
    # ------------------------------------------------------------------
    def _single_table(
        self,
        plan: DistributedPlan,
        lookups: Dict[str, PeerLookup],
        index_hops: int,
        user: Optional[str],
        timestamp: Optional[float],
    ) -> QueryExecution:
        """Q1/Q2-style evaluation (§6.1.6-§6.1.7).

        Selections/projections (and, for decomposable aggregates, *partial
        aggregation*) run at the data-owner peers; the query-submitting peer
        only merges partial results — no MemTable staging, no local re-scan.
        """
        context = self.context
        lookup = lookups[plan.base.binding]
        aggregate = plan.aggregate

        # Partial-aggregate rows cannot be access-rewritten (they are
        # derived values, not table columns), so the pushdown only applies
        # when the user's role grants unrestricted reads on every referenced
        # column at every owner; otherwise raw rows are fetched (and masked
        # at the source) and aggregated at the query peer.
        pushdown = (
            aggregate is not None
            and aggregate.partials is not None
            and unrestricted_read(context.peers, [plan.base], lookup.peers, user)
        )
        batches, durations, nbytes = self._fetch_table(
            partial_aggregate_plan(plan) if pushdown else plan.base,
            lookup,
            None if pushdown else user,
            timestamp,
        )
        # The owners' batches as one list of row tuples, in owner order.
        records = [row for batch in batches for row in batch.rows]
        if pushdown:
            records, columns = merge_partial_rows(aggregate, records)
        elif aggregate is not None:
            # Non-decomposable aggregates (COUNT DISTINCT) or restricted
            # users: the raw rows are aggregated here.
            records, columns = aggregate_rows(aggregate, records, plan.base.columns)
        else:
            # Pure selection (Q1): merge the owners' partial results.
            columns = list(plan.base.columns)

        merge_seconds = context.compute_model.rows_seconds(
            len(records), context.query_peer.compute_units
        )
        records, out_columns = finalize_records(plan, records, columns)
        fetch_seconds = makespan(durations, context.config.fetch_threads)
        latency = context.hop_cost_s(index_hops) + fetch_seconds + merge_seconds
        return QueryExecution(
            columns=out_columns,
            records=records,
            latency_s=latency,
            strategy="fetch-and-process",
            bytes_transferred=nbytes,
            peers_contacted=len(lookup.peers),
            index_hops=index_hops,
            dollar_cost=context.config.pricing.basic_cost(nbytes, latency),
        )

    # ------------------------------------------------------------------
    # Single-peer optimization
    # ------------------------------------------------------------------
    def _single_peer(
        self,
        sql: str,
        plan: DistributedPlan,
        peer_id: str,
        index_hops: int,
        user: Optional[str],
        timestamp: Optional[float],
    ) -> QueryExecution:
        context = self.context
        # execute() already proved the pushdown safe; re-prove it here so
        # the bypass and its access check cannot drift apart.
        require_unrestricted_read(context.peers, plan.local_plans, [peer_id], user)

        def run_remote():
            owner = context.peer(peer_id)
            execution = owner.execute_local(sql, query_timestamp=timestamp)
            result_bytes = execution.result.byte_size
            transfer = context.network.transfer(
                owner.host, context.query_peer.host, result_bytes
            )
            return execution, result_bytes, transfer

        execution, result_bytes, transfer = context.call_resilient(
            peer_id, run_remote
        )
        latency = (
            context.hop_cost_s(index_hops) + execution.seconds + transfer
        )
        return QueryExecution(
            columns=execution.result.columns,
            records=list(execution.result.rows),
            latency_s=latency,
            strategy="single-peer",
            bytes_transferred=result_bytes,
            peers_contacted=1,
            index_hops=index_hops,
            dollar_cost=context.config.pricing.basic_cost(result_bytes, latency),
        )

    # ------------------------------------------------------------------
    # Fetch and process
    # ------------------------------------------------------------------
    def _fetch_and_process(
        self,
        plan: DistributedPlan,
        lookups: Dict[str, PeerLookup],
        index_hops: int,
        user: Optional[str],
        timestamp: Optional[float],
    ) -> QueryExecution:
        context = self.context

        # Optional bloom join on the first equi-join: the base side is
        # fetched first, its keys (``passing``) build the filter for the
        # joined side.
        first_stage = plan.joins[0]
        bloom_filter = None
        passing: Set[object] = set()
        failing: Set[object] = set()
        local_plans = plan.local_plans
        fetched: Dict[str, List[ColumnBatch]] = {}
        fetch_durations: List[float] = []
        bytes_transferred = 0
        peers_contacted: Set[str] = set()

        for local_plan in local_plans:
            lookup = lookups[local_plan.binding]
            select = None
            if bloom_filter is not None and local_plan is first_stage.right:
                right_position = local_plan.columns.index(first_stage.right_key)
                # Shipping the filter to every owner costs its size once per
                # owner peer.
                for peer_id in lookup.peers:

                    def ship_filter(peer_id: str = peer_id):
                        return context.network.transfer(
                            context.query_peer.host,
                            context.peer(peer_id).host,
                            bloom_filter.size_bytes,
                        )

                    bytes_transferred += bloom_filter.size_bytes
                    fetch_durations.append(
                        context.call_resilient(peer_id, ship_filter)
                    )

                def select(batch: ColumnBatch) -> ColumnBatch:
                    # Ship only (probably-)matching tuples.  A build key
                    # passes unhashed (no false negatives); any other is
                    # hashed once per query, whichever owner ships it.
                    keys = batch.vectors[right_position]
                    present = set(keys)
                    fresh = present.difference(passing, failing)
                    if fresh:
                        if len(bloom_filter) == 0:
                            # Filled on first need: until a verdict is
                            # taken, ``passing`` is exactly the build keys.
                            bloom_filter.update(passing)
                        passing.update(filter(bloom_filter.__contains__, fresh))
                        failing.update(fresh.difference(passing))
                    if passing.issuperset(present):
                        return batch
                    return batch.take(
                        list(compress(count(), map(passing.__contains__, keys)))
                    )

            batches, durations, nbytes = self._fetch_table(
                local_plan, lookup, user, timestamp, select
            )
            fetched[local_plan.binding] = batches
            fetch_durations.extend(durations)
            bytes_transferred += nbytes
            peers_contacted.update(lookup.peers)

            if local_plan is plan.base and context.config.bloom_join_enabled:
                left_position = plan.base.columns.index(first_stage.left_key)
                for batch in batches:
                    passing.update(batch.vectors[left_position])
                passing.discard(None)
                if passing:
                    # Sized (and so priced) for the build keys now; their
                    # bits are set only if a probe key needs a verdict.
                    bloom_filter = BloomFilter(
                        len(passing),
                        bits_per_key=context.config.bloom_filter_bits_per_key,
                        num_hashes=context.config.bloom_filter_hashes,
                    )

        fetch_seconds = makespan(fetch_durations, context.config.fetch_threads)

        # Processing phase: charged as staging in MemTables, then the query.
        final, spills, staging_rows = _process_fetched(
            context.planner, plan, fetched, context.config.memtable_capacity_bytes
        )
        staging_seconds = context.compute_model.rows_seconds(
            staging_rows, context.query_peer.compute_units
        )
        processing_seconds = context.compute_model.seconds(
            final.stats, context.query_peer.compute_units
        )

        latency = (
            context.hop_cost_s(index_hops)
            + fetch_seconds
            + staging_seconds
            + processing_seconds
        )
        return QueryExecution(
            columns=final.columns,
            records=list(final.rows),
            latency_s=latency,
            strategy="fetch-and-process",
            bytes_transferred=bytes_transferred,
            peers_contacted=len(peers_contacted),
            index_hops=index_hops,
            bloom_joins=int(bloom_filter is not None),
            memtable_spills=spills,
            dollar_cost=context.config.pricing.basic_cost(
                bytes_transferred, latency
            ),
        )

    # ------------------------------------------------------------------
    # Fetch helpers
    # ------------------------------------------------------------------
    def _fetch_table(
        self,
        local_plan: TableLocalPlan,
        lookup: PeerLookup,
        user: Optional[str],
        timestamp: Optional[float],
        select: Optional[Callable[[ColumnBatch], ColumnBatch]] = None,
    ) -> Tuple[List[ColumnBatch], List[float], int]:
        """Run a subquery at every owner peer; returns (batches, durations, bytes).

        Each duration is one peer's (local execution + transfer) time; the
        caller folds them through the fetch-thread pool.
        """
        context = self.context
        batches: List[ColumnBatch] = []
        durations: List[float] = []
        total_bytes = 0
        # May raise SqlCatalogError exactly like executing the SQL would,
        # preserving broadcast skip semantics.
        prepared_at = prepare_once(local_plan.sql)
        for peer_id in lookup.peers:

            def fetch_one(peer_id: str = peer_id):
                # Resolve the owner inside the attempt: a fail-over rebinds
                # the peer to a fresh instance between retries.
                owner = context.peer(peer_id)
                execution = owner.execute_fetch(
                    local_plan.table, local_plan.sql, user=user,
                    query_timestamp=timestamp,
                    prepared=prepared_at(owner),
                )
                shipped = execution.result.batch
                if select is not None:
                    shipped = select(shipped)
                nbytes = _wire_bytes(shipped, local_plan)
                transfer = context.network.transfer(
                    owner.host, context.query_peer.host, nbytes
                )
                return shipped, nbytes, execution.seconds + transfer

            try:
                shipped, nbytes, duration = context.call_resilient(
                    peer_id, fetch_one
                )
            except SqlCatalogError:
                if lookup.index_used != "broadcast":
                    raise
                # A broadcast probe may reach peers that never hosted the
                # table; an empty answer is the correct outcome for them.
                continue
            durations.append(duration)
            total_bytes += nbytes
            batches.append(shipped)
        return batches, durations, total_bytes

    # ------------------------------------------------------------------
    # Index lookups
    # ------------------------------------------------------------------
    def _locate_tables(
        self, stmt: SelectStmt, plan: DistributedPlan
    ) -> Dict[str, PeerLookup]:
        """One indexer lookup per table binding, range-constrained if possible."""
        conjuncts = split_conjuncts(stmt.where)
        lookups: Dict[str, PeerLookup] = {}
        # Under a partial indexing policy, unindexed tables degrade to a
        # broadcast over the whole membership (just-in-time retrieval).
        policy = getattr(self.context.indexer, "policy", None)
        fallback = (
            sorted(self.context.peers)
            if policy is not None and policy.is_partial
            else None
        )
        for local_plan in plan.local_plans:
            # The first ``col <op> literal`` constraint over this table:
            # ``(column, low, high)``, or nothing to constrain the lookup by.
            constraint = range_constraint(
                self.context.schemas[local_plan.table], conjuncts
            )
            lookups[local_plan.binding] = self.context.indexer.locate(
                local_plan.table, *(constraint or ()), fallback_peers=fallback
            )
        return lookups
