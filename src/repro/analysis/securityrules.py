"""SEC002: admission before verification (§3.1), over the project graph.

Peers must not be admitted (``register_peer``) or handed credentials
(``<x>.certificate = ...``) by code that never consults the certificate
authority (``verify``/``verify_certificate``).  Clearing a certificate
(``= None``) is always fine.  The rule reasons over the conservative
whole-program call graph, so a check performed in a lexically enclosing
function or in a callee counts.
"""

from __future__ import annotations

from typing import Iterator, Set

from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.registry import ProjectRule, register_rule

#: Methods that consult the certificate authority.
CERT_VERIFY_METHODS = frozenset({"verify", "verify_certificate"})


def _chain_hits(graph: ProjectGraph, scope: str, reaching: Set[str]) -> bool:
    return any(fn in reaching for fn in graph.scope_chain(scope))


@register_rule
class CertificateOrderRule(ProjectRule):
    id = "SEC002"
    severity = Severity.ERROR
    description = (
        "peer admitted or credentialed by code that never consults the "
        "certificate authority (verify/verify_certificate)"
    )
    categories = ("src",)

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        reaching_verify = graph.functions_reaching(set(CERT_VERIFY_METHODS))
        for site in graph.call_sites:
            if site.callee_name != "register_peer":
                continue
            if _chain_hits(graph, site.caller, reaching_verify):
                continue
            module = graph.modules.get(site.module)
            if module is None:
                continue
            yield self.project_finding(
                module,
                site.lineno,
                site.col,
                f"{site.caller!r} admits a peer via register_peer but no "
                f"certificate verification is reachable from it",
            )
        for assign in graph.attr_assigns:
            if assign.attr != "certificate" or assign.value_is_none:
                continue
            if assign.target in ("self", "cls"):
                # A peer storing its *own* grant is the receiving side of
                # admission; verification is the issuer's obligation.
                continue
            if _chain_hits(graph, assign.caller, reaching_verify):
                continue
            module = graph.modules.get(assign.module)
            if module is None:
                continue
            yield self.project_finding(
                module,
                assign.lineno,
                assign.col,
                f"{assign.caller!r} hands {assign.target!r} a certificate "
                f"but no certificate verification is reachable from it",
            )
