"""Whole-program view: module import graph + conservative call graph.

The per-file rules in this package reason about one parse tree at a time,
but BestPeer++'s real invariants are cross-module: §4.4's access-control
rewrite must sit on every path from local storage to the wire, bootstrap
must verify certificates before admitting peers, and every cross-peer hop
must be retry-guarded.  This module builds the shared artifact
those checks need — one :class:`ProjectGraph` per analysis run, constructed
from the same :class:`FileContext` objects the file rules already use, so
the whole tree is parsed exactly once.

The call graph is deliberately conservative and name-based, in the spirit
of a reviewable lint rather than a type checker:

* ``f()`` resolves through the lexical scope chain, then module-level
  classes (to ``__init__``), then ``from m import f`` aliases;
* ``self.m()`` / ``cls.m()`` resolves to the enclosing class's method when
  it has one, otherwise to *every* method named ``m`` in the project;
* ``alias.m()`` where ``alias`` came from ``from pkg import module``
  resolves inside that module;
* any other ``recv.m()`` resolves to every method named ``m`` anywhere;
* a function *referenced* (not called) as a call argument gets an edge
  from the caller, so ``call_resilient(peer, fetch_one)`` both links
  ``fetch_one`` into the graph and marks it as a resilience-covered root.

The graph keeps one edge map, ``edges`` (and its reverse): the reliably
resolved calls (every rule above but the any-method fallback, plus a
fallback whose method name is unique in the project) and the function
references.  An ambiguous fallback's candidates stay on
``CallSite.resolved`` only, where effect inference weighs them against
the receiver text; reachability never follows them, so membership in a
reachable set cannot be granted by accident.

Every function has one qualname, the dotted path of its enclosing defs
and classes, and every analysis keys by it.  Scopes, call sites and
mutation sites all come from the one scoped walk each
:class:`FileContext` carries (:mod:`repro.analysis.scopes`).

Everything is deterministic: modules are processed in sorted path order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.asthelpers import ImportMap
from repro.analysis.registry import FileContext
from repro.analysis.scopes import (
    MODULE_SCOPE,
    CallSite,
    ModuleWalk,
    Scope,
    module_name_for_path,
)


def unit_of(module_name: str) -> str:
    """The architectural unit a module belongs to.

    ``repro.core.peer`` → ``core``; a root module like ``repro.errors`` is
    its own unit (``errors``); non-repro fixtures use their first component.
    """
    parts = module_name.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[0]


@dataclass
class ModuleNode:
    """One scanned file, as a node in the import graph."""

    name: str
    path: str
    category: str
    lines: List[str]
    is_package: bool
    walk: ModuleWalk

    @property
    def unit(self) -> str:
        return unit_of(self.name)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


@dataclass(frozen=True)
class ImportEdge:
    """``src`` imports ``dst`` at ``lineno`` (repro-internal targets only)."""

    src: str
    dst: str
    lineno: int
    type_checking_only: bool


@dataclass
class AttrAssign:
    """One mutation of ``<expr>.attr`` (assignment, item write, or delete).

    Beyond plain ``x.attr = value``, this records ``x.attr[k] = v`` /
    ``x.attr[k] += v`` / ``del x.attr[k]`` and
    ``x.attr += v`` / ``del x.attr`` — every syntactic way a statement can
    mutate state hanging off an attribute.  Used by the admission-order
    check (SEC002).
    """

    caller: str
    module: str
    target: str  # rendered receiver expression
    attr: str
    lineno: int
    col: int
    value_is_none: bool


class ProjectGraph:
    """Import graph + call graph over one set of parsed files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleNode] = {}
        self.import_edges: List[ImportEdge] = []
        #: qualname -> its scope, from every module's walk.
        self.functions: Dict[str, Scope] = {}
        self.call_sites: List[CallSite] = []
        self.attr_assigns: List[AttrAssign] = []
        #: module -> its import aliases.
        self.imports: Dict[str, ImportMap] = {}
        # caller qualname -> reliably resolved callees + referenced
        # functions (see the module docstring).
        self.edges: Dict[str, Set[str]] = {}
        self.reverse_edges: Dict[str, Set[str]] = {}
        # resolution indexes
        self._defs_in_scope: Dict[str, Dict[str, str]] = {}
        self._classes: Dict[str, Dict[str, Dict[str, str]]] = {}
        self._methods_by_name: Dict[str, Set[str]] = {}
        #: Per-run scratch space for analyses memoized on this graph.
        self.memo: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectGraph":
        graph = cls()
        ordered = sorted(contexts, key=lambda ctx: ctx.path)
        for ctx in ordered:
            graph._add_module(ctx)
        for ctx in ordered:
            graph._collect_defs(graph.modules[module_name_for_path(ctx.path)])
        for ctx in ordered:
            mod = graph.modules[module_name_for_path(ctx.path)]
            graph._collect_imports(mod)
            graph._collect_calls(mod)
        return graph

    def _add_module(self, ctx: FileContext) -> None:
        name = module_name_for_path(ctx.path)
        self.modules[name] = ModuleNode(
            name=name,
            path=ctx.path,
            category=ctx.category,
            lines=list(ctx.lines),
            is_package=ctx.path.endswith("__init__.py"),
            walk=ctx.walk,
        )
        self.imports[name] = ImportMap(ctx.walk.imports)

    def _module_scope(self, module_name: str) -> str:
        return f"{module_name}:{MODULE_SCOPE}"

    def _collect_defs(self, mod: ModuleNode) -> None:
        classes = self._classes.setdefault(mod.name, {})
        for qual, scope in mod.walk.scopes.items():
            self.functions[qual] = scope
            self._defs_in_scope.setdefault(qual, {})
            if scope.parent is None:
                continue
            if scope.cls is None:
                self._defs_in_scope.setdefault(scope.parent, {})[
                    scope.name
                ] = qual
            else:
                classes.setdefault(scope.cls, {})[scope.name] = qual
                self._methods_by_name.setdefault(scope.name, set()).add(qual)

    # ------------------------------------------------------------------
    # imports

    def _lookup_module(
        self, name: str, allow_unknown_repro: bool = False
    ) -> Optional[str]:
        if name in self.modules:
            return name
        if allow_unknown_repro and name and name.split(".")[0] == "repro":
            return name
        return None

    def _import_targets(
        self, mod: ModuleNode, node: ast.AST
    ) -> Iterator[str]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = self._lookup_module(
                    alias.name, allow_unknown_repro=True
                )
                if target is not None:
                    yield target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = mod.name.split(".")
                if not mod.is_package:
                    package = package[:-1]
                strip = node.level - 1
                if strip:
                    package = package[: len(package) - strip]
                base = ".".join(package + ([node.module] if node.module else []))
            for alias in node.names:
                target = None
                if alias.name != "*":
                    target = self._lookup_module(f"{base}.{alias.name}")
                if target is None:
                    target = self._lookup_module(
                        base, allow_unknown_repro=True
                    )
                if target is not None:
                    yield target

    def _collect_imports(self, mod: ModuleNode) -> None:
        guarded = {
            id(inner)
            for block in mod.walk.type_checking
            for stmt in block.body
            for inner in ast.walk(stmt)
        }
        for node in mod.walk.imports:
            for target in self._import_targets(mod, node):
                if target == mod.name:
                    continue
                self.import_edges.append(
                    ImportEdge(
                        src=mod.name,
                        dst=target,
                        lineno=node.lineno,
                        type_checking_only=id(node) in guarded,
                    )
                )

    # ------------------------------------------------------------------
    # calls

    def scope_chain(self, scope: str) -> Iterator[str]:
        """``scope`` followed by its lexically enclosing function scopes,
        ending at the module's ``<module>`` pseudo-function."""
        current: Optional[str] = scope
        while current is not None:
            yield current
            scope = self.functions.get(current)
            current = scope.parent if scope is not None else None

    def _resolve_bare_name(
        self, name: str, scope: str, module: str
    ) -> Optional[str]:
        for enclosing in self.scope_chain(scope):
            found = self._defs_in_scope.get(enclosing, {}).get(name)
            if found is not None:
                return found
        local_classes = self._classes.get(module, {})
        if name in local_classes:
            return local_classes[name].get("__init__")
        origin = self.imports[module].member_origin(name)
        if origin is not None:
            src_module, member = origin
            target = self._lookup_module(src_module)
            if target is not None:
                found = self._defs_in_scope.get(
                    self._module_scope(target), {}
                ).get(member)
                if found is not None:
                    return found
                target_classes = self._classes.get(target, {})
                if member in target_classes:
                    return target_classes[member].get("__init__")
        return None

    def _resolve_attr_call(
        self,
        receiver: ast.expr,
        attr: str,
        enclosing_cls: Optional[str],
        module: str,
    ) -> Tuple[Tuple[str, ...], bool, bool]:
        """Resolve ``recv.attr(...)``; returns (callees, precise, fallback)."""
        if isinstance(receiver, ast.Name):
            if receiver.id in ("self", "cls") and enclosing_cls is not None:
                methods = self._classes.get(module, {}).get(enclosing_cls, {})
                if attr in methods:
                    return (methods[attr],), True, False
            origin = self.imports[module].member_origin(receiver.id)
            if origin is not None:
                candidate = f"{origin[0]}.{origin[1]}"
                target = self._lookup_module(candidate)
                if target is not None:
                    found = self._defs_in_scope.get(
                        self._module_scope(target), {}
                    ).get(attr)
                    if found is not None:
                        return (found,), True, False
                    target_classes = self._classes.get(target, {})
                    if attr in target_classes:
                        init = target_classes[attr].get("__init__")
                        return ((init,) if init else ()), True, False
        # Conservative fallback: every method of this name, project-wide.
        # A name exactly one class defines is still a reliable resolution;
        # an ambiguous one (``execute``, ``run``) over-approximates only.
        candidates = tuple(sorted(self._methods_by_name.get(attr, ())))
        return candidates, len(candidates) == 1, True

    def _add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)
        self.reverse_edges.setdefault(callee, set()).add(caller)

    def _function_ref(
        self,
        arg: ast.expr,
        scope: str,
        enclosing_cls: Optional[str],
        module: str,
    ) -> Optional[str]:
        """Resolve a call *argument* that names a function, if it does."""
        if isinstance(arg, ast.Name):
            return self._resolve_bare_name(arg.id, scope, module)
        if (
            isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id in ("self", "cls")
            and enclosing_cls is not None
        ):
            methods = self._classes.get(module, {}).get(enclosing_cls, {})
            return methods.get(arg.attr)
        return None

    def _collect_calls(self, mod: ModuleNode) -> None:
        for scope in mod.walk.scopes.values():
            for site in scope.calls:
                self._resolve_call(site, scope.method_cls)
            self.call_sites.extend(scope.calls)
            self.attr_assigns.extend(
                AttrAssign(
                    caller=scope.qualname,
                    module=mod.name,
                    target=site.receiver,
                    attr=site.target.attr,  # type: ignore[attr-defined]
                    lineno=site.stmt.lineno,
                    col=site.stmt.col_offset,
                    value_is_none=site.value_is_none,
                )
                for site in scope.mutations
                if site.receiver is not None
            )

    def _resolve_call(self, site: CallSite, method_cls: Optional[str]) -> None:
        """Fill in ``site``'s resolution and add its edges."""
        node = site.node
        if isinstance(node.func, ast.Attribute):
            site.resolved, site.precise, site.via_fallback = (
                self._resolve_attr_call(
                    node.func.value, site.callee_name, method_cls, site.module
                )
            )
        else:
            found = self._resolve_bare_name(
                site.callee_name, site.caller, site.module
            )
            site.resolved = (found,) if found is not None else ()
            site.precise, site.via_fallback = True, False
        refs = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref = self._function_ref(arg, site.caller, method_cls, site.module)
            if ref is not None:
                refs.append(ref)
        site.func_ref_args = tuple(refs)
        for callee in site.resolved if site.precise else ():
            self._add_edge(site.caller, callee)
        for ref in refs:
            self._add_edge(site.caller, ref)

    # ------------------------------------------------------------------
    # queries

    def functions_reaching(self, callee_names: Set[str]) -> Set[str]:
        """Functions from which a call to any of ``callee_names`` is
        reachable (transitively, through ``edges``).

        Direct call sites seed the set by *name* regardless of resolution;
        the transitive step follows reliable edges only, so membership
        ("this function does check access") is never granted through an
        ambiguous any-method-of-this-name candidate.
        """
        reaching: Set[str] = set()
        work: List[str] = []
        for site in self.call_sites:
            if site.callee_name in callee_names and site.caller not in reaching:
                reaching.add(site.caller)
                work.append(site.caller)
        while work:
            fn = work.pop()
            for caller in self.reverse_edges.get(fn, ()):
                if caller not in reaching:
                    reaching.add(caller)
                    work.append(caller)
        return reaching

    def functions_reachable_from(self, roots: Set[str]) -> Set[str]:
        """Forward closure over ``edges``: ``roots`` plus everything they
        (transitively) call or reference."""
        reachable = set(roots)
        work = sorted(roots)
        while work:
            fn = work.pop()
            for callee in self.edges.get(fn, ()):
                if callee not in reachable:
                    reachable.add(callee)
                    work.append(callee)
        return reachable

    def module_of_function(self, qualname: str) -> Optional[ModuleNode]:
        node = self.functions.get(qualname)
        if node is None:
            return None
        return self.modules.get(node.module)
