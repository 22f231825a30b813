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
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph, iter_function_defs
from repro.analysis.registry import ProjectRule, register_rule

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
        for node in ast.walk(graph.modules[name].tree):
            if isinstance(node, ast.ClassDef):
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


def _handler_catches(handler: ast.ExceptHandler, family: Set[str]) -> bool:
    if handler.type is None:
        return True  # bare except
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and (
            name in family or name in _FAMILY_ANCESTORS
        ):
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


@dataclass
class _CallRecord:
    """One call site inside a function, with its handler context."""

    lineno: int
    col: int
    callee_name: str
    receiver: Optional[str]
    caught: bool  # a family-catching handler encloses the site
    is_primitive: bool  # a cross-peer wire/exec call
    is_wrapper: bool  # call_resilient / ResilienceContext.call


@dataclass
class _FuncSummary:
    qualname: str
    module: str
    calls: List[_CallRecord]
    #: (lineno, description) of uncaught local family raises/primitives.
    local_escapes: List[Tuple[int, str]]


def _summarize_function(
    qualname: str,
    module: str,
    body: List[ast.stmt],
    family: Set[str],
) -> _FuncSummary:
    summary = _FuncSummary(qualname, module, [], [])

    def visit_expr(node: ast.AST, caught: bool) -> None:
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            receiver: Optional[str] = None
            if isinstance(func, ast.Attribute):
                callee = func.attr
                try:
                    receiver = ast.unparse(func.value)
                except Exception:
                    receiver = "<expr>"
            elif isinstance(func, ast.Name):
                callee = func.id
            else:
                continue
            is_primitive = (
                receiver is not None
                and receiver not in ("self", "cls")
                and callee in _REMOTE_CALLEES
            )
            summary.calls.append(
                _CallRecord(
                    lineno=child.lineno,
                    col=child.col_offset,
                    callee_name=callee,
                    receiver=receiver,
                    caught=caught,
                    is_primitive=is_primitive,
                    is_wrapper=_is_wrapper(callee, receiver),
                )
            )
            if is_primitive and not caught:
                summary.local_escapes.append(
                    (child.lineno, f"{receiver}.{callee}(...) can raise")
                )

    def visit_body(stmts: List[ast.stmt], caught: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes are their own summaries
            if isinstance(stmt, ast.Try) or (
                stmt.__class__.__name__ == "TryStar"
            ):
                catches = any(
                    _handler_catches(h, family)
                    for h in stmt.handlers  # type: ignore[attr-defined]
                )
                visit_body(stmt.body, caught or catches)  # type: ignore[attr-defined]
                # The handlers do not cover the ``else:`` block.
                visit_body(stmt.orelse, caught)  # type: ignore[attr-defined]
                for handler in stmt.handlers:  # type: ignore[attr-defined]
                    visit_body(handler.body, caught)
                visit_body(stmt.finalbody, caught)  # type: ignore[attr-defined]
                continue
            if isinstance(stmt, ast.Raise):
                raised = _raised_name(stmt.exc)
                if raised in family and not caught:
                    summary.local_escapes.append(
                        (stmt.lineno, f"raise {raised}")
                    )
                if stmt.exc is not None:
                    visit_expr(stmt.exc, caught)
                continue
            if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While,
                                 ast.With, ast.AsyncWith)):
                for field_name in ("test", "iter", "target"):
                    value = getattr(stmt, field_name, None)
                    if isinstance(value, ast.expr):
                        visit_expr(value, caught)
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        visit_expr(item.context_expr, caught)
                visit_body(stmt.body, caught)
                visit_body(getattr(stmt, "orelse", []), caught)
                continue
            visit_expr(stmt, caught)

    visit_body(body, False)
    summary.local_escapes.sort()
    return summary


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
        summaries: Dict[str, _FuncSummary] = {}
        for name in sorted(graph.modules):
            mod = graph.modules[name]
            for qualname, funcdef, _cls, _scope in iter_function_defs(
                mod.name, mod.tree
            ):
                body = (
                    mod.tree.body
                    if funcdef is None
                    else funcdef.body  # type: ignore[attr-defined]
                )
                summaries[qualname] = _summarize_function(
                    qualname, mod.name, list(body), family
                )

        # Resolution: join each record with the graph's call-site index.
        # Chained calls (``x.f().g()``) share one anchor position, so the
        # callee name is part of the key.
        site_index = {
            (site.caller, site.lineno, site.col, site.callee_name): site
            for site in graph.call_sites
        }

        def resolved_callees(qual: str, rec: _CallRecord) -> Tuple[str, ...]:
            site = site_index.get((qual, rec.lineno, rec.col, rec.callee_name))
            if site is None or not site.precise:
                return ()
            return tuple(
                callee
                for callee in sorted(site.resolved)
                if callee in summaries and not self._exempt(graph, callee)
            )

        # Bottom-up: from which functions does the family escape, and why.
        escapes: Set[str] = set()
        witness: Dict[str, Tuple[str, int, str]] = {}
        for qual in sorted(summaries):
            summary = summaries[qual]
            if summary.local_escapes and not self._exempt(graph, qual):
                escapes.add(qual)
                lineno, desc = summary.local_escapes[0]
                witness[qual] = ("prim", lineno, desc)
        changed = True
        while changed:
            changed = False
            for qual in sorted(summaries):
                if qual in escapes:
                    continue
                for rec in summaries[qual].calls:
                    if rec.caught or rec.is_wrapper:
                        continue
                    for callee in resolved_callees(qual, rec):
                        if callee in escapes:
                            escapes.add(qual)
                            witness[qual] = ("call", rec.lineno, callee)
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
        for qual in sorted(summaries):
            if qual not in graph.reverse_edges and not protected(
                qual
            ):
                exposed.add(qual)
                work.append(qual)
        while work:
            qual = work.pop()
            for rec in summaries[qual].calls:
                if rec.caught or rec.is_wrapper:
                    continue
                for callee in resolved_callees(qual, rec):
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

        for qual in sorted(summaries):
            if qual not in exposed or self._exempt(graph, qual):
                continue
            module = graph.modules.get(summaries[qual].module)
            if module is None:
                continue
            for rec in summaries[qual].calls:
                if rec.caught or rec.is_wrapper:
                    continue
                if rec.is_primitive:
                    call = f"{rec.receiver}.{rec.callee_name}(...)"
                    finding = self.project_finding(
                        module,
                        rec.lineno,
                        rec.col,
                        f"{call} in {qual!r} can raise NetworkError-family "
                        f"exceptions with no resilience coverage or handler "
                        f"on the path — wrap it in a closure passed to "
                        f"call_resilient/ResilienceContext.call or catch "
                        f"the family",
                    )
                    finding.trace = ((module.path, rec.lineno, f"{call} can raise"),)
                    yield finding
                    continue
                for callee in resolved_callees(qual, rec):
                    if callee not in escapes:
                        continue
                    finding = self.project_finding(
                        module,
                        rec.lineno,
                        rec.col,
                        f"NetworkError-family exceptions escape "
                        f"{callee!r} and propagate through {qual!r} with "
                        f"no resilience coverage or handler on the path "
                        f"— wrap the call or catch the family",
                    )
                    finding.trace = witness_trace(
                        module.path, rec.lineno, callee
                    )
                    yield finding
                    break  # one finding per site
