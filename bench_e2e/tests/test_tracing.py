"""Span arithmetic on a synthetic tree, and wrappers that leave no trace."""

import importlib
import sys

from bench_e2e.tracing import (
    COUNT,
    TARGETS,
    Target,
    Tracer,
    aggregate,
    layer_metrics,
    layer_of,
    self_times,
)


def _span(name, start, end, parent, count=0.0):
    return [name, start, end, parent, count]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span("net.execute", 0.0, 10.0, -1),        # 0: self 10 - 8 = 2
        _span("engine.execute", 1.0, 9.0, 0),       # 1: self 8 - 3 - 2 = 3
        _span("memtable.extend", 2.0, 5.0, 1, 40),  # 2: self 3
        _span("memtable.flush", 6.0, 8.0, 1),       # 3: self 2 - 1.5 = 0.5
        _span("table.insert_many", 6.25, 7.75, 3),  # 4: self 1.5 (staging: under a flush)
        _span("net.refresh_peer", 20.0, 24.0, -1),  # 5: self 4 - 1 = 3
        _span("table.insert_many", 21.0, 22.0, 5),  # 6: self 1 (a write: no flush above it)
    ]
    assert self_times(spans) == [2.0, 3.0, 3.0, 0.5, 1.5, 3.0, 1.0]
    totals = aggregate(spans)
    # every second inside a root belongs to exactly one layer
    assert totals.root_s == 14.0
    assert sum(totals.self_s.values()) == 14.0
    assert totals.self_s["sqlengine.stage"] == 3.0 + 0.5 + 1.5
    assert totals.self_s["sqlengine.write"] == 1.0
    assert totals.self_s["core.engine.self"] == 3.0
    assert totals.self_s["core.network.self"] == 2.0 + 3.0
    metrics = layer_metrics(totals, rounds=2, missing=set())
    assert metrics["sqlengine.stage_ms"] == 2500.0
    assert metrics["sqlengine.stage_rows"] == 20.0
    assert metrics["sqlengine.final_exec_ms"] == 0.0
    assert metrics["baton.hops_per_search"] == 0.0


def test_wrapper_cost_moves_from_the_caller_to_its_own_layer():
    spans = [
        _span("mr.run_job", 0.0, 10.0, -1),
        _span("records_byte_size", 1.0, 2.0, 0),
        _span("records_byte_size", 3.0, 4.0, 0),
    ]
    assert self_times(spans, overhead_s=0.5) == [7.0, 1.0, 1.0]
    totals = aggregate(spans, overhead_s=0.5)
    assert totals.self_s["mapreduce.run_job"] == 7.0
    assert totals.self_s["bench.wrapper"] == 1.0
    assert sum(totals.self_s.values()) == totals.root_s == 10.0
    tracer = Tracer()
    assert 0.0 < tracer.measure_overhead(calls=2000) < 1e-4
    assert tracer.spans == []  # the probe leaves no spans behind


def test_context_decides_the_layer_of_shared_callables():
    assert layer_of("table.insert_many", ["memtable.flush", "engine.execute"]) == "sqlengine.stage"
    assert layer_of("table.insert_many", ["peer.refresh"]) == "sqlengine.write"
    assert layer_of("db.execute_select", ["engine.execute"]) == "sqlengine.final_exec"
    assert layer_of("db.execute_select", ["db.execute", "peer.execute_local"]) == "sqlengine.owner_exec"


def _bindings(targets):
    """Every (namespace, attribute) -> object a tracer may touch."""
    seen = {}
    for target in targets:
        module = importlib.import_module(target.module)
        if target.owner is not None:
            owner = getattr(module, target.owner)
            seen[(owner, target.attr)] = owner.__dict__[target.attr]
            continue
        original = getattr(module, target.attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    seen[(mod, attr)] = value
    return seen


def test_wrappers_are_fully_restored():
    import repro.core.network  # noqa: F401  (pulls in every engine module)
    import repro.hadoopdb.system  # noqa: F401
    import repro.serving.frontdoor  # noqa: F401

    before = _bindings(TARGETS)
    # the by-name bindings the issue warns about are really found
    import repro.core.engine_basic as engine_basic
    assert (engine_basic, "records_byte_size") in before
    assert (engine_basic, "parse") in before

    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        for (namespace, attr), original in before.items():
            assert vars(namespace)[attr] is not original, (namespace, attr)
    finally:
        tracer.uninstall()
    for (namespace, attr), original in before.items():
        assert vars(namespace)[attr] is original, (namespace, attr)
    assert _bindings(TARGETS) == before


def test_a_vanished_target_yields_null_metrics_not_a_crash(capsys):
    targets = [
        Target("memtable.extend", "repro.sqlengine.table", "MemTable", "no_such_method"),
        Target("records_byte_size", "repro.no_such_module", None, "records_byte_size"),
    ]
    tracer = Tracer()
    tracer.install(targets)
    tracer.uninstall()
    assert tracer.missing == {"memtable.extend", "records_byte_size"}
    assert "trace target gone" in capsys.readouterr().err
    metrics = layer_metrics(aggregate([]), rounds=1, missing=tracer.missing)
    assert metrics["sqlengine.stage_ms"] is None
    assert metrics["sqlengine.stage_rows"] is None
    assert metrics["mapreduce.byte_size_ms"] is None
    assert metrics["mapreduce.byte_size_calls"] is None
    assert metrics["sim.network.transfer_ms"] == 0.0


def test_spans_nest_and_count():
    from repro.sqlengine.table import MemTable, Table
    from repro.tpch import schema_for

    tracer = Tracer()
    tracer.install()
    try:
        memtable = MemTable(Table(schema_for("region")))
        memtable.extend([(1, "ASIA", "x"), (2, "EUROPE", "y")])
        memtable.flush()
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names == ["memtable.extend", "memtable.flush", "table.insert_many"]
    assert tracer.spans[0][COUNT] == 2.0
    assert tracer.spans[2][3] == 1  # insert_many ran inside the flush
