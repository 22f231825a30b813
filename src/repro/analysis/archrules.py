"""ARCH001: the layering contract, checked against the real import graph.

BestPeer++'s cost model is only honest because the layers stay apart: the
simulated substrate (``sim``) must not know about the platform built on it,
the SQL engine (``sqlengine``) is a self-contained library, the BATON
overlay (``baton``) is pure data structure, and this analysis package
itself must stay stdlib-only so it can judge the rest of the tree from
outside.  The plan layer (``plan``) is what all four executors consume, so
it may know the SQL engine and the MapReduce framework but neither the
platform nor the baseline; the HadoopDB baseline (``hadoopdb``) is a leaf
over it that must not reach into the system it is compared against.
``core`` is the integration layer and may import everything below it.

The contract below lists, per architectural unit, which *other* units it
may import at runtime.  A unit's own modules are always allowed, and units
not listed (``core``, ``serving``, ``bench``, ...) are unconstrained.
``if TYPE_CHECKING:`` imports are exempt — typing-only knowledge does not
couple layers at runtime.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph, unit_of
from repro.analysis.registry import ProjectRule, register_rule

#: unit -> other units it may import at runtime (own unit always allowed).
LAYERING_CONTRACT: Dict[str, FrozenSet[str]] = {
    "analysis": frozenset(),
    "sim": frozenset({"errors"}),
    "sqlengine": frozenset({"errors"}),
    "baton": frozenset({"errors"}),
    "errors": frozenset(),
    "mapreduce": frozenset({"errors", "sim", "sqlengine"}),
    "plan": frozenset({"errors", "sqlengine", "mapreduce"}),
    "hadoopdb": frozenset({"errors", "sim", "sqlengine", "mapreduce", "plan"}),
}


@register_rule
class LayeringRule(ProjectRule):
    id = "ARCH001"
    severity = Severity.ERROR
    description = (
        "import crosses the declared layering contract "
        "(sim/sqlengine/baton depend only on errors; plan, mapreduce and "
        "hadoopdb never import core; analysis is stdlib-only)"
    )
    categories = ("src",)

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for edge in graph.import_edges:
            if edge.type_checking_only:
                continue
            src_unit = unit_of(edge.src)
            allowed = LAYERING_CONTRACT.get(src_unit)
            if allowed is None:
                continue  # unconstrained unit
            dst_unit = unit_of(edge.dst)
            if dst_unit == src_unit or dst_unit in allowed:
                continue
            module = graph.modules.get(edge.src)
            if module is None:
                continue
            yield self.project_finding(
                module,
                edge.lineno,
                0,
                f"layer {src_unit!r} must not import {edge.dst!r} "
                f"(allowed: {sorted(allowed | {src_unit})}); "
                f"use an `if TYPE_CHECKING:` guard for typing-only imports",
            )
