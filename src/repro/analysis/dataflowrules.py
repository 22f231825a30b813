"""SEC003: tenant-controlled values reaching privileged sinks (§4.4).

Runs on :mod:`repro.analysis.dataflow`.  Three source families are
tracked with real value-flow evidence:

* rows read remotely without access rewriting (``execute_local``, or
  ``execute_fetch`` with no effective user) reaching a ``SimNetwork``
  ``transfer``/``broadcast``;
* serving-request payloads (``request.sql`` / ``request.payload``)
  reaching a metalog/WAL append or certificate issuance;
* foreign certificates (``<peer>.certificate``) reaching issuance or
  installation.

A flow through ``AccessController.rewrite_rows`` is *sanitized* (the
result is clean by §4.4's definition); a flow is *cleared* when an access
check or certificate verification is must-executed before the sink or
reachable from either endpoint's lexical scope chain.  Every finding
carries the source→sink hop list.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.analysis.dataflow import (
    SinkSpec,
    SourceSpec,
    TaintEngine,
    TaintHit,
    TaintSpec,
)
from repro.analysis.engine import categorize
from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.registry import ProjectRule, register_rule

#: Access-control decisions that clear a rows/request flow (the role
#: checks plus the serving front door's read-restriction checks).
_ACCESS_GUARDS = (
    "rewrite_rows",
    "check_readable",
    "can_read",
    "rule_for",
    "require_unrestricted_read",
    "unrestricted_read",
)
_CERT_GUARDS = ("verify", "verify_certificate")
#: Receiver tokens naming the replicated metadata log / WAL.
_LOG_TOKENS = ("log", "metalog", "meta_log", "wal", "_log", "_wal")

SEC003_SPECS: Tuple[TaintSpec, ...] = (
    TaintSpec(
        name="rows",
        sources=(
            SourceSpec(
                kind="rows",
                describe="rows read remotely without access rewriting",
                calls=("execute_local",),
                remote_only=True,
            ),
            SourceSpec(
                kind="rows",
                describe="rows fetched without an effective user",
                calls=("execute_fetch",),
                remote_only=True,
                require_no_user=True,
            ),
        ),
        sinks=(
            SinkSpec(label="cross-peer transfer", calls=("transfer",)),
            SinkSpec(label="cross-peer broadcast", calls=("broadcast",)),
        ),
        sanitizers=("rewrite_rows",),
        guards=_ACCESS_GUARDS,
    ),
    TaintSpec(
        name="request",
        sources=(
            SourceSpec(
                kind="request",
                describe="tenant-controlled serving-request payload",
                attrs=(
                    ("request", "sql"),
                    ("request", "payload"),
                    ("req", "sql"),
                    ("req", "payload"),
                ),
            ),
        ),
        sinks=(
            SinkSpec(
                label="metalog append",
                calls=("append", "receive"),
                receiver_tokens=_LOG_TOKENS,
            ),
            SinkSpec(
                label="certificate issuance",
                calls=("issue", "install"),
            ),
        ),
        sanitizers=("rewrite_rows",),
        guards=_ACCESS_GUARDS + _CERT_GUARDS,
    ),
    TaintSpec(
        name="credential",
        sources=(
            SourceSpec(
                kind="credential",
                describe="unverified peer certificate",
                attrs=(("", "certificate"),),
            ),
        ),
        sinks=(
            SinkSpec(
                label="certificate issuance/installation",
                calls=("issue", "install"),
            ),
            SinkSpec(
                label="metalog append",
                calls=("append", "receive"),
                receiver_tokens=_LOG_TOKENS,
            ),
        ),
        guards=_CERT_GUARDS,
    ),
)

def _sink_text(hit: TaintHit) -> str:
    call = hit.sink_call
    prefix = f"{call.site.receiver}." if call.site.receiver else ""
    return f"{prefix}{call.site.callee_name}(...)"


@register_rule
class TenantValueFlowRule(ProjectRule):
    id = "SEC003"
    severity = Severity.ERROR
    description = (
        "tenant-controlled value (unrewritten rows, request payload, "
        "unverified certificate) flows into a privileged sink with no "
        "access check or verification on the flow (§4.4 value-level)"
    )
    categories = ("src",)

    def _origin_in_scope(self, graph: ProjectGraph, engine, hit) -> bool:
        """Only sources in the rule's own file categories taint: a test
        calling ``execute_local`` directly exercises the local executor,
        it is not a tenant-controlled product flow."""
        flow = engine.flows.get(hit.origin_qual)
        if flow is None:
            return True
        module = graph.modules.get(flow.scope.module)
        if module is None:
            return True
        return categorize(module.path) in self.categories

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        engine = TaintEngine(graph)
        for spec in SEC003_SPECS:
            for hit in engine.run(spec):
                module = graph.modules.get(hit.sink_module)
                if module is None:
                    continue
                if not self._origin_in_scope(graph, engine, hit):
                    continue
                finding = self.project_finding(
                    module,
                    hit.sink_call.site.lineno,
                    hit.sink_call.site.col,
                    f"{hit.origin_desc} flows into {_sink_text(hit)} "
                    f"[{hit.sink.label}] — rewrite through AccessController "
                    f"/ verify the certificate before this value reaches "
                    f"the sink",
                )
                finding.trace = hit.trace
                yield finding
