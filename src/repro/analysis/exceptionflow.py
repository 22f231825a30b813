"""RES004: escaping-exception-flow analysis for NetworkError-family errors.

Every cross-peer operation — a ``SimNetwork`` ``transfer``/``broadcast``
or a remote ``execute_fetch``/``execute_local`` — can raise a
``NetworkError``, and must run under the retry/breaker/deadline umbrella
of ``repro.core.resilience`` (a function handed to
``EngineContext.call_resilient`` / ``ResilienceContext.call``, or
something such a function calls) or inside a handler that catches the
family.  Checking each site's own scope is not enough: a helper wrapped on
one path can also be called bare from somewhere else, and the error
raised inside it then unwinds through callers none of which retry,
breaker, or catch.

This rule computes, per function, whether a ``NetworkError``-family
exception can *escape* it: a cross-peer primitive call or an explicit
``raise`` of a family type, not enclosed in a handler that catches the
family, or a call to a function the family escapes from, equally unhandled
— a bottom-up fixpoint over the reliable call graph.  It then walks
top-down from *entry points* (functions with no reliable callers) marking
functions the escape actually *reaches* with no resilience coverage and no
handler anywhere on the propagation path, and flags, in each such
function, every uncaught primitive and every uncaught call into an
escaping callee.  The finding's trace walks the witness chain down to the
primitive that raises.

Exemptions, by design rather than oversight: ``sim`` (the substrate is
the wire and cannot wrap itself), ``mapreduce`` (the §5.4 engine inherits
Hadoop's job re-execution fault model, not per-message retry),
``analysis`` (no runtime traffic), and ``repro.core.resilience`` itself.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.registry import ProjectRule, register_rule
from repro.analysis.scopes import CallSite

#: The family whose escape we track, plus the types that catch it.
_BUILTIN_FAMILY = frozenset(
    {"NetworkError", "TransientNetworkError", "RpcTimeoutError"}
)
_FAMILY_ANCESTORS = frozenset(
    {"SimulationError", "ReproError", "Exception", "BaseException"}
)
#: Cross-peer primitives: the wire, and reads on another peer.
_REMOTE_CALLEES = frozenset(
    {"transfer", "broadcast", "execute_fetch", "execute_local"}
)
EXEMPT_UNITS = frozenset({"sim", "mapreduce", "analysis"})
EXEMPT_MODULES = frozenset({"repro.core.resilience"})


def _is_wrapper(callee: str, receiver: Optional[str]) -> bool:
    """``call_resilient(...)`` / ``<...resilience...>.call(...)``: the
    functions referenced as its arguments run under the resilience layer."""
    return callee == "call_resilient" or (
        callee == "call" and receiver is not None and "resilience" in receiver
    )


def _base_names(node: ast.ClassDef) -> Iterator[str]:
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def network_family(graph: ProjectGraph) -> Set[str]:
    """Class names in the NetworkError family, by declared inheritance
    across every scanned module (fixtures included) plus the built-ins."""
    subclasses: Dict[str, Set[str]] = {}
    for name in sorted(graph.modules):
        for node in graph.modules[name].walk.classes:
            for base in _base_names(node):
                subclasses.setdefault(base, set()).add(node.name)
    family = set(_BUILTIN_FAMILY)
    work = sorted(family)
    while work:
        cls = work.pop()
        for sub in subclasses.get(cls, ()):
            if sub not in family:
                family.add(sub)
                work.append(sub)
    return family


def _caught(handlers: Sequence[ast.ExceptHandler], family: Set[str]) -> bool:
    """Whether any of ``handlers`` catches the family."""
    for handler in handlers:
        if handler.type is None:
            return True  # bare except
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for node in types:
            name = _raised_name(node)
            if name in family or name in _FAMILY_ANCESTORS:
                return True
    return False


def _raised_name(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_primitive(site: CallSite) -> bool:
    return (
        site.receiver is not None
        and site.receiver not in ("self", "cls")
        and site.callee_name in _REMOTE_CALLEES
    )


@register_rule
class ExceptionEscapeRule(ProjectRule):
    id = "RES004"
    severity = Severity.WARNING
    description = (
        "cross-peer call or call site through which NetworkError-family "
        "exceptions escape with no resilience coverage or handler "
        "anywhere on the propagation path"
    )
    categories = ("src",)

    def _exempt(self, graph: ProjectGraph, qualname: str) -> bool:
        module_name = qualname.split(":", 1)[0]
        module = graph.modules.get(module_name)
        if module is None:
            return True
        return module.unit in EXEMPT_UNITS or module.name in EXEMPT_MODULES

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        family = network_family(graph)
        # Per function: the call sites an escape propagates through (no
        # family handler around them, and not a resilience wrapper, whose
        # arguments run covered), and the family errors it raises itself.
        calls: Dict[str, List[CallSite]] = {q: [] for q in graph.functions}
        for site in graph.call_sites:
            if not _is_wrapper(site.callee_name, site.receiver) and not (
                _caught(site.handlers, family)
            ):
                calls[site.caller].append(site)
        local_escapes: Dict[str, List[Tuple[int, str]]] = {}
        for qual, scope in graph.functions.items():
            found = [
                (site.lineno, f"{site.receiver}.{site.callee_name}(...) "
                 "can raise")
                for site in calls[qual]
                if _is_primitive(site)
            ] + [
                (node.lineno, f"raise {_raised_name(node.exc)}")
                for node, handlers in scope.raises
                if _raised_name(node.exc) in family
                and not _caught(handlers, family)
            ]
            local_escapes[qual] = sorted(found)

        def resolved_callees(site: CallSite) -> Tuple[str, ...]:
            if not site.precise:
                return ()
            return tuple(
                callee
                for callee in sorted(site.resolved)
                if callee in calls and not self._exempt(graph, callee)
            )

        # Bottom-up: from which functions does the family escape, and why.
        escapes: Set[str] = set()
        witness: Dict[str, Tuple[str, int, str]] = {}
        for qual in sorted(calls):
            if local_escapes[qual] and not self._exempt(graph, qual):
                escapes.add(qual)
                lineno, desc = local_escapes[qual][0]
                witness[qual] = ("prim", lineno, desc)
        changed = True
        while changed:
            changed = False
            for qual in sorted(calls):
                if qual in escapes:
                    continue
                for site in calls[qual]:
                    for callee in resolved_callees(site):
                        if callee in escapes:
                            escapes.add(qual)
                            witness[qual] = ("call", site.lineno, callee)
                            changed = True
                            break
                    if qual in escapes:
                        break

        # Resilience coverage: everything reachable from a function handed
        # to a wrapper.
        roots: Set[str] = set()
        for site in graph.call_sites:
            if _is_wrapper(site.callee_name, site.receiver):
                roots.update(site.func_ref_args)
        covered = graph.functions_reachable_from(roots)

        def protected(qual: str) -> bool:
            return any(fn in covered for fn in graph.scope_chain(qual))

        # Top-down: which functions does the escape actually reach with
        # no protection on the way from an entry point.
        exposed: Set[str] = set()
        work: List[str] = []
        for qual in sorted(calls):
            if qual not in graph.reverse_edges and not protected(qual):
                exposed.add(qual)
                work.append(qual)
        while work:
            qual = work.pop()
            for site in calls[qual]:
                for callee in resolved_callees(site):
                    if callee not in exposed and not protected(callee):
                        exposed.add(callee)
                        work.append(callee)

        def witness_trace(
            start_path: str, start_line: int, callee: str
        ) -> Tuple[Tuple[str, int, str], ...]:
            hops: List[Tuple[str, int, str]] = [
                (start_path, start_line, f"uncovered call into {callee!r}")
            ]
            current = callee
            for _ in range(20):
                module = graph.module_of_function(current)
                step = witness.get(current)
                if step is None or module is None:
                    break
                kind, lineno, detail = step
                if kind == "prim":
                    hops.append((module.path, lineno, detail))
                    break
                hops.append(
                    (module.path, lineno, f"uncaught call into {detail!r}")
                )
                current = detail
            return tuple(hops)

        for qual in sorted(calls):
            if qual not in exposed or self._exempt(graph, qual):
                continue
            module = graph.module_of_function(qual)
            if module is None:
                continue
            for site in calls[qual]:
                if _is_primitive(site):
                    call = f"{site.receiver}.{site.callee_name}(...)"
                    finding = self.project_finding(
                        module,
                        site.lineno,
                        site.col,
                        f"{call} in {qual!r} can raise NetworkError-family "
                        f"exceptions with no resilience coverage or handler "
                        f"on the path — wrap it in a closure passed to "
                        f"call_resilient/ResilienceContext.call or catch "
                        f"the family",
                    )
                    finding.trace = ((module.path, site.lineno, f"{call} can raise"),)
                    yield finding
                    continue
                for callee in resolved_callees(site):
                    if callee not in escapes:
                        continue
                    finding = self.project_finding(
                        module,
                        site.lineno,
                        site.col,
                        f"NetworkError-family exceptions escape "
                        f"{callee!r} and propagate through {qual!r} with "
                        f"no resilience coverage or handler on the path "
                        f"— wrap the call or catch the family",
                    )
                    finding.trace = witness_trace(
                        module.path, site.lineno, callee
                    )
                    yield finding
                    break  # one finding per site
