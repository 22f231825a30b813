"""Span wrappers installed from the benchmark's side, and their arithmetic.

The program carries no spans of its own yet (that is the ROADMAP's traces
item), so the traced run wraps the public callables at each layer boundary
with ``setattr`` — class methods by attribute, module-level functions on
every ``repro`` module that binds the name — and records one span per
call: ``(name, start, end, parent, count)``, parent being the index of the
span that was open when this one started.  Spans of one op share their
root span.  A layer's *self time* is its span's duration minus its direct
children's durations, so self times add up to the time inside the roots.

A target that no longer exists is skipped with a warning and the metrics
fed by its span come out as ``None``, never a crash.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

# span fields
NAME, START, END, PARENT, COUNT = range(5)


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is a class name inside ``module``, or ``None`` for a
    module-level function.  ``count`` optionally turns a call into a number
    kept on the span (rows in, hops out, cache hit as 0/1).
    """

    span: str
    module: str
    owner: Optional[str]
    attr: str
    count: Optional[Callable[[tuple, object], float]] = None


def _rows_in(position: int) -> Callable[[tuple, object], float]:
    return lambda args, result: float(len(args[position]))


TARGETS: List[Target] = [
    Target("net.execute", "repro.core.network", "BestPeerNetwork", "execute"),
    Target("net.refresh_peer", "repro.core.network", "BestPeerNetwork", "refresh_peer"),
    Target("engine.execute", "repro.core.engine_basic", "BasicEngine", "execute"),
    Target("engine.execute", "repro.core.engine_parallel", "ParallelP2PEngine", "execute"),
    Target("engine.execute", "repro.core.engine_mapreduce", "BestPeerMapReduceEngine", "execute"),
    Target("engine.execute", "repro.core.adaptive", "AdaptiveEngine", "execute"),
    Target("peer.execute_local", "repro.core.peer", "NormalPeer", "execute_local"),
    Target("peer.execute_fetch", "repro.core.peer", "NormalPeer", "execute_fetch"),
    Target("peer.prepare_fetch", "repro.core.peer", "NormalPeer", "prepare_fetch"),
    Target("peer.refresh", "repro.core.peer", "NormalPeer", "refresh"),
    Target("peer.publish_indices", "repro.core.peer", "NormalPeer", "publish_indices"),
    Target("peer.backup_to", "repro.core.peer", "NormalPeer", "backup_to"),
    Target("db.execute", "repro.sqlengine.database", "Database", "execute"),
    Target("db.execute_prepared", "repro.sqlengine.database", "Database", "execute_prepared"),
    Target("db.execute_select", "repro.sqlengine.database", "Database", "execute_select"),
    Target("db.prepare", "repro.sqlengine.database", "Database", "prepare"),
    Target("db.create_table", "repro.sqlengine.database", "Database", "create_table"),
    Target("sql.parse", "repro.sqlengine.parser", None, "parse"),
    Target("planner.plan", "repro.sqlengine.planner", "Planner", "plan"),
    Target("memtable.extend", "repro.sqlengine.table", "MemTable", "extend", _rows_in(1)),
    Target("memtable.flush", "repro.sqlengine.table", "MemTable", "flush"),
    Target("table.insert_many", "repro.sqlengine.table", "Table", "insert_many"),
    Target("table.delete_row", "repro.sqlengine.table", "Table", "delete_row"),
    Target("table.delete_where", "repro.sqlengine.table", "Table", "delete_where"),
    Target("table.column_data", "repro.sqlengine.table", "Table", "column_data"),
    Target("access.rewrite_rows", "repro.core.access_control", "AccessController",
           "rewrite_rows", _rows_in(4)),
    Target("indexer.locate", "repro.core.indexer", "DataIndexer", "locate",
           lambda args, result: float(result.cache_hit)),
    Target("indexer.unpublish_all", "repro.core.indexer", "DataIndexer", "unpublish_all"),
    Target("resilience.call", "repro.core.resilience", "ResilienceContext", "call"),
    Target("simnet.transfer", "repro.sim.network", "SimNetwork", "transfer"),
    Target("records_byte_size", "repro.mapreduce.engine", None, "records_byte_size"),
    Target("mr.run_job", "repro.mapreduce.engine", "MapReduceEngine", "run_job"),
    Target("hadoopdb.execute", "repro.hadoopdb.system", "HadoopDbCluster", "execute"),
    Target("baton.search", "repro.baton.replication", "ReplicatedOverlay", "search",
           lambda args, result: float(result.hops)),
    Target("baton.range_search", "repro.baton.replication", "ReplicatedOverlay",
           "range_search", lambda args, result: float(result.hops)),
    Target("baton.insert", "repro.baton.replication", "ReplicatedOverlay", "insert"),
    Target("baton.delete", "repro.baton.replication", "ReplicatedOverlay", "delete"),
    Target("serving.submit", "repro.serving.frontdoor", "ServingFrontDoor", "submit"),
    Target("serving.drain", "repro.serving.frontdoor", "ServingFrontDoor", "drain"),
]

# Which layer a span's self time is charged to.  Three spans depend on
# where they were called from; ``layer_of`` settles those.
LAYER_OF_SPAN: Dict[str, str] = {
    "net.execute": "core.network.self",
    "net.refresh_peer": "core.network.self",
    "engine.execute": "core.engine.self",
    "peer.execute_local": "sqlengine.owner_exec",
    "peer.execute_fetch": "sqlengine.owner_exec",
    "peer.prepare_fetch": "sqlengine.prepare",
    "peer.refresh": "core.loader.refresh",
    "peer.publish_indices": "core.peer.publish",
    "peer.backup_to": "core.peer.backup",
    "db.execute": "sqlengine.owner_exec",
    "db.execute_prepared": "sqlengine.owner_exec",
    "db.prepare": "sqlengine.prepare",
    "db.create_table": "sqlengine.stage",
    "sql.parse": "sqlengine.prepare",
    "planner.plan": "sqlengine.prepare",
    "memtable.extend": "sqlengine.stage",
    "memtable.flush": "sqlengine.stage",
    "table.delete_row": "sqlengine.write",
    "table.delete_where": "sqlengine.write",
    "table.column_data": "sqlengine.column_data",
    "access.rewrite_rows": "core.access.rewrite",
    "indexer.locate": "core.indexer.locate",
    "indexer.unpublish_all": "core.peer.publish",
    "resilience.call": "core.resilience.call",
    "simnet.transfer": "sim.network.transfer",
    "records_byte_size": "mapreduce.byte_size",
    "mr.run_job": "mapreduce.run_job",
    "hadoopdb.execute": "hadoopdb.execute",
    "baton.search": "baton.search",
    "baton.range_search": "baton.search",
    "baton.insert": "baton.write",
    "baton.delete": "baton.write",
    "serving.submit": "serving.submit",
    "serving.drain": "serving.submit",
}


def layer_of(name: str, ancestors: Sequence[str]) -> str:
    """The layer one span's self time belongs to.

    ``Table.insert_many`` is staging under a MemTable flush and a write
    under a refresh; ``Database.execute_select`` is the query peer's final
    processing when called directly on the staging database and owner-side
    execution when reached through ``Database.execute``.
    """
    if name == "table.insert_many":
        return "sqlengine.stage" if "memtable.flush" in ancestors else "sqlengine.write"
    if name == "db.execute_select":
        return "sqlengine.owner_exec" if "db.execute" in ancestors else "sqlengine.final_exec"
    return LAYER_OF_SPAN[name]


class Tracer:
    """Installs the wrappers, holds the spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        # (namespace, attribute, original descriptor) for every patched binding
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: Set[str] = set()
        #: What one wrapper costs its *caller* (see ``measure_overhead``).
        self.overhead_s = 0.0

    # -- wrapping --------------------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, name, count = self.spans, self._stack, target.span, target.count
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # The slot is reserved on entry (children must know their
            # parent's index) and filled on exit with a tuple of atoms:
            # the collector stops tracking those, where millions of small
            # lists made every full collection slower as a run went on.
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, 0.0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (
                name, start, end, parent,
                count(args, result) if count is not None else 0.0,
            )
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def measure_overhead(self, calls: int = 20000) -> float:
        """Seconds one wrapped call costs beyond the bare call.

        A span's clock starts after its bookkeeping and stops before it
        ends, so a wrapper's cost lands in the *caller's* self time.  With
        tens of thousands of ``records_byte_size`` calls per round that is
        real money; ``aggregate`` moves it to ``bench.wrapper`` instead.
        Timed in a tight loop, so it is a floor on the cost in situ.
        """
        def bare():
            return None

        wrapped = self._wrap(Target("bench.probe", "", None, ""), bare)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            bare()
        middle = clock()
        for _ in range(calls):
            wrapped()
        end = clock()
        del self.spans[-calls:]
        self.overhead_s = max(0.0, ((end - middle) - (middle - start)) / calls)
        return self.overhead_s

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        self.measure_overhead()
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                if target.owner is None:
                    original = getattr(module, target.attr)
                else:
                    owner = getattr(module, target.owner)
                    original = owner.__dict__[target.attr]
            except (ImportError, AttributeError, KeyError):
                print(
                    f"bench_e2e: trace target gone: {target.module}."
                    f"{target.owner + '.' if target.owner else ''}{target.attr} "
                    f"(span {target.span}); its metrics will be null",
                    file=sys.stderr,
                )
                self.missing.add(target.span)
                continue
            wrapper = self._wrap(target, original)
            if target.owner is not None:
                self._patch(owner, target.attr, original, wrapper)
                continue
            # ``from m import f`` copies the binding: patch every repro
            # module that holds this very function, under whatever name.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, namespace: object, attr: str, original: object, wrapper: object) -> None:
        self._patched.append((namespace, attr, original))
        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence], overhead_s: float = 0.0) -> List[float]:
    """Per span: duration minus its direct children's durations, and minus
    ``overhead_s`` of wrapper cost for each of those children."""
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            result[span[PARENT]] -= span[END] - span[START] + overhead_s
    return result


def ancestors_of(spans: Sequence[Sequence], index: int) -> List[str]:
    names = []
    parent = spans[index][PARENT]
    while parent >= 0:
        names.append(spans[parent][NAME])
        parent = spans[parent][PARENT]
    return names


@dataclass
class LayerTotals:
    """Per layer, over a whole traced phase: self seconds."""

    self_s: Dict[str, float]
    calls: Dict[str, int]      # per span name
    counts: Dict[str, float]   # per span name: sum of the span's count field
    root_s: float              # time inside root spans = sum of all self times


def aggregate(
    spans: Sequence[Sequence], overhead_s: float = 0.0,
    totals: Optional[LayerTotals] = None,
) -> LayerTotals:
    """Fold spans into layers (adding to ``totals`` when given, so a run
    can fold each round and drop its spans).  The wrappers' own cost
    (``overhead_s`` per non-root span) is taken out of the callers' self
    times and shown as the ``bench.wrapper`` layer, so the layers still add
    up to ``root_s``."""
    selfs = self_times(spans, overhead_s)
    if totals is None:
        totals = LayerTotals({"bench.wrapper": 0.0}, {}, {}, 0.0)
    for index, span in enumerate(spans):
        name = span[NAME]
        # only the context-dependent spans need their ancestors walked
        layer = LAYER_OF_SPAN.get(name) or layer_of(name, ancestors_of(spans, index))
        totals.self_s[layer] = totals.self_s.get(layer, 0.0) + selfs[index]
        if span[PARENT] >= 0:
            totals.self_s["bench.wrapper"] += overhead_s
        totals.calls[name] = totals.calls.get(name, 0) + 1
        totals.counts[name] = totals.counts.get(name, 0.0) + span[COUNT]
        if span[PARENT] < 0:
            totals.root_s += span[END] - span[START]
    return totals


# Per-layer metric -> the spans it is computed from (for the null rule).
SPANS_OF_LAYER: Dict[str, List[str]] = {}
for _span, _layer in LAYER_OF_SPAN.items():
    SPANS_OF_LAYER.setdefault(_layer, []).append(_span)
SPANS_OF_LAYER["sqlengine.stage"].append("table.insert_many")
SPANS_OF_LAYER["sqlengine.write"].append("table.insert_many")
SPANS_OF_LAYER["sqlengine.owner_exec"].append("db.execute_select")
SPANS_OF_LAYER["sqlengine.final_exec"] = ["db.execute_select"]
SPANS_OF_LAYER["bench.wrapper"] = []

#: count-type metrics: name -> (spans whose calls are counted, spans whose
#: count fields are summed, divide-by-calls?)
CALL_METRICS: Dict[str, List[str]] = {
    "sqlengine.owner_exec_calls": ["db.execute", "db.execute_prepared"],
    "core.indexer.locate_calls": ["indexer.locate"],
    "core.resilience.calls": ["resilience.call"],
    "sim.network.transfer_calls": ["simnet.transfer"],
    "mapreduce.byte_size_calls": ["records_byte_size"],
    "mapreduce.jobs": ["mr.run_job"],
    "baton.search_calls": ["baton.search", "baton.range_search"],
}
SUM_METRICS: Dict[str, List[str]] = {
    "sqlengine.stage_rows": ["memtable.extend"],
    "core.access.rewrite_rows": ["access.rewrite_rows"],
}
RATIO_METRICS: Dict[str, List[str]] = {
    # sum of count fields / number of calls
    "core.indexer.cache_hit_ratio": ["indexer.locate"],
    "baton.hops_per_search": ["baton.search", "baton.range_search"],
}


def layer_metrics(
    totals: LayerTotals, rounds: int, missing: Set[str]
) -> Dict[str, Optional[float]]:
    """The span-derived per-layer metrics, per round; ``None`` where a
    span the metric needs could not be installed."""
    metrics: Dict[str, Optional[float]] = {}

    def gone(spans: Sequence[str]) -> bool:
        return any(span in missing for span in spans)

    for layer, spans in SPANS_OF_LAYER.items():
        metrics[f"{layer}_ms"] = (
            None if gone(spans) else 1e3 * totals.self_s.get(layer, 0.0) / rounds
        )
    for name, spans in CALL_METRICS.items():
        metrics[name] = (
            None if gone(spans) else sum(totals.calls.get(s, 0) for s in spans) / rounds
        )
    for name, spans in SUM_METRICS.items():
        metrics[name] = (
            None if gone(spans) else sum(totals.counts.get(s, 0.0) for s in spans) / rounds
        )
    for name, spans in RATIO_METRICS.items():
        calls = sum(totals.calls.get(s, 0) for s in spans)
        metrics[name] = (
            None if gone(spans)
            else (sum(totals.counts.get(s, 0.0) for s in spans) / calls if calls else 0.0)
        )
    return metrics
