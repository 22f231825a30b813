"""The parallel P2P engine: replicated joins over a processing graph (§5.3).

Instead of shipping every qualified tuple to the query-submitting peer, each
join level runs *at the data-owner peers of the joined table*: the (small)
intermediate result is replicated to all ``t(T_i)`` owners, each of which
joins it against its local partition — the replicated-join of Fig. 4.  The
result parts stay distributed and feed the next level; the root finally
collects the (much smaller) top-level stream, aggregates and projects.

This trades network cost (the broadcast) for parallelism, exactly the
trade-off the cost model (Eq. 8) prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.execution import EngineContext, QueryExecution, prepare_once
from repro.core.indexer import PeerLookup
from repro.mapreduce.engine import records_byte_size
from repro.plan.driver import aggregate_rows, finalize_records, lower_join_stage
from repro.sqlengine.batch import LazyColumns
from repro.sim.clock import parallel_duration


@dataclass
class _StreamPart:
    """A slice of the intermediate result living at one peer.

    Priced when it is made: a part is broadcast to every owner of the next
    table, and its wire size is the same each time.
    """

    peer_id: str
    rows: List[tuple]
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nbytes = records_byte_size(self.rows)


class ParallelP2PEngine:
    """Replicated-join execution over the data-owner peers."""

    def __init__(self, context: EngineContext) -> None:
        self.context = context

    def execute(
        self,
        sql: str,
        user: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> QueryExecution:
        context = self.context
        _, plan = context.planner.compile_text(sql)

        lookups: Dict[str, PeerLookup] = {}
        index_hops = 0
        for local_plan in plan.local_plans:
            lookup = context.indexer.locate(local_plan.table)
            lookups[local_plan.binding] = lookup
            index_hops += lookup.hops
            context.require_online(lookup.peers)

        bytes_transferred = 0
        peers_contacted: Set[str] = set()
        level_seconds: List[float] = []

        # Level L: scan the base table at its owners; parts stay local.
        stream: List[_StreamPart] = []
        scan_durations = []
        base_prepared_at = prepare_once(plan.base.sql)
        for peer_id in lookups[plan.base.binding].peers:

            def scan_one(peer_id: str = peer_id):
                owner = context.peer(peer_id)
                # The scanned parts *stay on the owner* (that is the point
                # of the replicated-join strategy); the per-part broadcast
                # in join_at_owner prices every byte when parts do move.
                execution = owner.execute_fetch(  # repro: allow[ISO002] parts stay local; the join-level broadcast prices shipping
                    plan.base.table, plan.base.sql, user=user,
                    query_timestamp=timestamp,
                    prepared=base_prepared_at(owner),
                )
                return list(execution.result.rows), execution.seconds

            rows, scan_seconds = context.call_resilient(peer_id, scan_one)
            stream.append(_StreamPart(peer_id, rows))
            scan_durations.append(scan_seconds)
            peers_contacted.add(peer_id)
        level_seconds.append(parallel_duration(*scan_durations))
        columns = list(plan.base.columns)

        # One level per join: broadcast the stream to the owners of the new
        # table, join locally in parallel.
        for stage in plan.joins:
            left_position, right_position, out_columns, residual = (
                lower_join_stage(stage, columns)
            )
            width = len(out_columns)
            owners = lookups[stage.right.binding].peers
            if not owners:
                stream, columns = [], out_columns
                continue
            stream_rows = [row for part in stream for row in part.rows]
            stream_bytes = sum(part.nbytes for part in stream)

            join_durations = []
            new_stream: List[_StreamPart] = []
            # As with the base scan: one prepare for the stage's subquery,
            # shared by every owner of the joined table.
            stage_prepared_at = prepare_once(stage.right.sql)
            for peer_id in owners:
                peers_contacted.add(peer_id)

                def join_at_owner(
                    peer_id: str = peer_id,
                    stream: List[_StreamPart] = stream,
                    stage=stage,
                    residual=residual,
                    width=width,
                    stage_prepared_at=stage_prepared_at,
                ):
                    owner = context.peer(peer_id)
                    # Replicate the full intermediate result to this owner:
                    # one transfer per current part holder.
                    broadcast_seconds = 0.0
                    for part in stream:
                        broadcast_seconds += context.network.transfer(
                            context.peer(part.peer_id).host,
                            owner.host,
                            part.nbytes,
                        )

                    execution = owner.execute_fetch(
                        stage.right.table, stage.right.sql, user=user,
                        query_timestamp=timestamp,
                        prepared=stage_prepared_at(owner),
                    )
                    local_rows = execution.result.rows

                    buckets: Dict[object, List[tuple]] = {}
                    for row in local_rows:
                        key = row[right_position]
                        if key is not None:
                            buckets.setdefault(key, []).append(row)
                    joined = [
                        left_row + right_row
                        for left_row in stream_rows
                        for right_row in buckets.get(left_row[left_position], ())
                    ]
                    if residual is not None:
                        kept = residual(
                            LazyColumns.over_rows(joined, width), len(joined)
                        )
                        joined = list(map(joined.__getitem__, kept))
                    join_seconds = context.compute_model.rows_seconds(
                        len(stream_rows) + len(local_rows) + len(joined),
                        owner.compute_units,
                    )
                    return joined, (
                        broadcast_seconds + execution.seconds + join_seconds
                    )

                joined, owner_seconds = context.call_resilient(
                    peer_id, join_at_owner
                )
                bytes_transferred += stream_bytes
                join_durations.append(owner_seconds)
                new_stream.append(_StreamPart(peer_id, joined))
            level_seconds.append(parallel_duration(*join_durations))
            stream = new_stream
            columns = out_columns

        # Root: collect the final stream at the query peer.
        collect_durations = []
        final_rows: List[tuple] = []
        for part in stream:

            def collect_part(part=part):
                return context.network.transfer(
                    context.peer(part.peer_id).host,
                    context.query_peer.host,
                    part.nbytes,
                )

            collect_durations.append(
                context.call_resilient(part.peer_id, collect_part)
            )
            bytes_transferred += part.nbytes
            final_rows.extend(part.rows)
        level_seconds.append(parallel_duration(*collect_durations))

        # Group-by level + every unassigned operator run at the root.
        if plan.aggregate is not None:
            final_rows, columns = aggregate_rows(plan.aggregate, final_rows, columns)
        root_seconds = context.compute_model.rows_seconds(
            len(final_rows), context.query_peer.compute_units
        )
        records, out_columns = finalize_records(plan, final_rows, columns)

        latency = (
            context.hop_cost_s(index_hops)
            + sum(level_seconds)
            + root_seconds
        )
        return QueryExecution(
            columns=out_columns,
            records=records,
            latency_s=latency,
            strategy="parallel-p2p",
            bytes_transferred=bytes_transferred,
            peers_contacted=len(peers_contacted),
            index_hops=index_hops,
            dollar_cost=context.config.pricing.basic_cost(
                bytes_transferred, latency
            ),
        )
