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
and classes (:func:`iter_function_defs`), and every analysis keys by it.

Everything is deterministic: modules are processed in sorted path order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.asthelpers import ImportMap
from repro.analysis.registry import FileContext

#: Pseudo-function name holding a module's top-level statements.
MODULE_SCOPE = "<module>"


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path, rooted at the ``repro`` package.

    Paths outside a ``repro`` tree (multi-file test fixtures) fall back to
    the path itself, dotted, so fixture imports still resolve.
    """
    parts = [part for part in path.replace("\\", "/").split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path


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
    tree: ast.Module
    lines: List[str]
    is_package: bool

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


@dataclass(frozen=True)
class FunctionNode:
    """A function, method, or a module's top-level pseudo-function.

    Qualnames look like ``repro.core.peer:NormalPeer.execute_fetch``,
    ``repro.core.engine_basic:_fetch_table.fetch_one`` (nested), or
    ``repro.errors:<module>`` (top-level code); see
    :func:`iter_function_defs`.
    """

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    lineno: int


@dataclass
class CallSite:
    """One syntactic call, with whatever resolution the graph managed."""

    caller: str  # qualname of the enclosing function scope
    module: str
    callee_name: str  # bare name at the call site (``m`` in ``recv.m()``)
    receiver: Optional[str]  # rendered receiver expression, None for ``f()``
    lineno: int
    col: int
    node: ast.Call
    resolved: Tuple[str, ...] = ()
    func_ref_args: Tuple[str, ...] = ()
    #: Whether ``resolved`` came from a reliable resolution (lexical
    #: scope, imports, same-class self-call, or a project-unique method
    #: name) rather than the any-method-of-this-name fallback; only then
    #: do its callees become ``ProjectGraph.edges``.
    precise: bool = False
    #: Whether ``resolved`` came from the any-method-of-this-name fallback
    #: at all — a *unique* fallback match is still ``precise`` for the
    #: reachability rules, but effect inference refuses to propagate
    #: through it unless the receiver text names the candidate's class
    #: (``pending.append(...)`` must not inherit ``MetadataLog.append``'s
    #: replication effects just because the method name is unique).
    via_fallback: bool = False


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


def _type_checking_import_ids(tree: ast.Module) -> Set[int]:
    """ids of Import/ImportFrom nodes guarded by ``if TYPE_CHECKING:``."""
    guarded: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.attr
            if isinstance(test, ast.Attribute)
            else getattr(test, "id", None)
        )
        if name != "TYPE_CHECKING":
            continue
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    guarded.add(id(inner))
    return guarded


def iter_function_defs(
    module_name: str, tree: ast.Module
) -> Iterator[Tuple[str, Optional[ast.AST], Optional[str], Optional[str]]]:
    """Yield ``(qualname, funcdef, enclosing_class, enclosing_scope)`` for
    the module pseudo-function (``funcdef`` None) and every function in
    ``tree``.  The analyzer's one qualname rule: the dotted path of every
    enclosing def and class (``m:outer.Local.tick``, ``m:Outer.Inner.run``).
    ``enclosing_scope`` is the nearest enclosing function's qualname (the
    module pseudo-function for top-level code, None for that itself)."""
    module_scope = f"{module_name}:{MODULE_SCOPE}"
    yield module_scope, None, None, None

    def walk(
        node: ast.AST, path: List[str], direct_cls: Optional[str], scope: str
    ) -> Iterator[Tuple[str, Optional[ast.AST], Optional[str], Optional[str]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module_name}:{'.'.join(path + [child.name])}"
                yield qual, child, direct_cls, scope
                yield from walk(child, path + [child.name], None, qual)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, path + [child.name], child.name, scope)
            elif not isinstance(child, ast.expr):  # no def inside an expression
                yield from walk(child, path, direct_cls, scope)

    yield from walk(tree, [], None, module_scope)


class ProjectGraph:
    """Import graph + call graph over one set of parsed files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleNode] = {}
        self.import_edges: List[ImportEdge] = []
        self.functions: Dict[str, FunctionNode] = {}
        self.call_sites: List[CallSite] = []
        self.attr_assigns: List[AttrAssign] = []
        #: def node -> its qualname, for walkers that meet the def again.
        self.qualname_by_def: Dict[ast.AST, str] = {}
        # caller qualname -> reliably resolved callees + referenced
        # functions (see the module docstring).
        self.edges: Dict[str, Set[str]] = {}
        self.reverse_edges: Dict[str, Set[str]] = {}
        # resolution indexes
        self._defs_in_scope: Dict[str, Dict[str, str]] = {}
        self._parent_scope: Dict[str, Optional[str]] = {}
        self._classes: Dict[str, Dict[str, Dict[str, str]]] = {}
        self._methods_by_name: Dict[str, Set[str]] = {}
        self._import_maps: Dict[str, ImportMap] = {}
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
            tree=ctx.tree,
            lines=list(ctx.lines),
            is_package=ctx.path.endswith("__init__.py"),
        )
        self._import_maps[name] = ImportMap(ctx.tree)

    def _module_scope(self, module_name: str) -> str:
        return f"{module_name}:{MODULE_SCOPE}"

    def _add_function(self, node: FunctionNode) -> None:
        self.functions[node.qualname] = node
        self._defs_in_scope.setdefault(node.qualname, {})

    def _collect_defs(self, mod: ModuleNode) -> None:
        classes = self._classes.setdefault(mod.name, {})
        for qual, funcdef, cls, scope in iter_function_defs(
            mod.name, mod.tree
        ):
            self._parent_scope[qual] = scope
            if funcdef is None:
                self._add_function(
                    FunctionNode(qual, mod.name, MODULE_SCOPE, None, 0)
                )
                continue
            name = funcdef.name  # type: ignore[attr-defined]
            self._add_function(
                FunctionNode(
                    qual, mod.name, name, cls,
                    funcdef.lineno,  # type: ignore[attr-defined]
                )
            )
            self.qualname_by_def[funcdef] = qual
            if cls is None:
                self._defs_in_scope.setdefault(scope, {})[name] = qual
            else:
                classes.setdefault(cls, {})[name] = qual
                self._methods_by_name.setdefault(name, set()).add(qual)

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
        guarded = _type_checking_import_ids(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
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
            current = self._parent_scope.get(current)

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
        origin = self._import_maps[module].member_origin(name)
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
    ) -> Tuple[List[str], bool, bool]:
        """Resolve ``recv.attr(...)``; returns (callees, precise, fallback)."""
        if isinstance(receiver, ast.Name):
            if receiver.id in ("self", "cls") and enclosing_cls is not None:
                methods = self._classes.get(module, {}).get(enclosing_cls, {})
                if attr in methods:
                    return [methods[attr]], True, False
            origin = self._import_maps[module].member_origin(receiver.id)
            if origin is not None:
                candidate = f"{origin[0]}.{origin[1]}"
                target = self._lookup_module(candidate)
                if target is not None:
                    found = self._defs_in_scope.get(
                        self._module_scope(target), {}
                    ).get(attr)
                    if found is not None:
                        return [found], True, False
                    target_classes = self._classes.get(target, {})
                    if attr in target_classes:
                        init = target_classes[attr].get("__init__")
                        return ([init] if init else []), True, False
        # Conservative fallback: every method of this name, project-wide.
        # A name exactly one class defines is still a reliable resolution;
        # an ambiguous one (``execute``, ``run``) over-approximates only.
        candidates = sorted(self._methods_by_name.get(attr, ()))
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
        module_scope = self._module_scope(mod.name)

        def walk(
            node: ast.AST,
            scope: str,
            direct_cls: Optional[str],
            method_cls: Optional[str],
        ) -> None:
            # ``direct_cls``: class whose body we are lexically inside
            # (decides method-ness of defs); ``method_cls``: class of the
            # *method scope* we are executing in (decides what ``self`` is).
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(
                        child,
                        self.qualname_by_def[child],
                        None,
                        direct_cls if direct_cls is not None else method_cls,
                    )
                    continue
                if isinstance(child, ast.ClassDef):
                    walk(child, scope, child.name, method_cls)
                    continue
                if isinstance(child, ast.Call):
                    self._record_call(child, scope, method_cls, mod)
                elif isinstance(child, ast.Assign):
                    self._record_attr_assigns(child, scope, mod)
                elif isinstance(child, (ast.AugAssign, ast.Delete)):
                    self._record_other_mutations(child, scope, mod)
                walk(child, scope, direct_cls, method_cls)

        walk(mod.tree, module_scope, None, None)

    def _record_call(
        self,
        node: ast.Call,
        scope: str,
        method_cls: Optional[str],
        mod: ModuleNode,
    ) -> None:
        func = node.func
        receiver_text: Optional[str] = None
        resolved: List[str] = []
        precise = True
        via_fallback = False
        if isinstance(func, ast.Name):
            callee_name = func.id
            found = self._resolve_bare_name(callee_name, scope, mod.name)
            if found is not None:
                resolved = [found]
        elif isinstance(func, ast.Attribute):
            callee_name = func.attr
            try:
                receiver_text = ast.unparse(func.value)
            except Exception:
                receiver_text = "<expr>"
            resolved, precise, via_fallback = self._resolve_attr_call(
                func.value, callee_name, method_cls, mod.name
            )
        else:
            return  # a call on a call result — nothing nameable to track
        refs: List[str] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref = self._function_ref(arg, scope, method_cls, mod.name)
            if ref is not None:
                refs.append(ref)
        site = CallSite(
            caller=scope,
            module=mod.name,
            callee_name=callee_name,
            receiver=receiver_text,
            lineno=node.lineno,
            col=node.col_offset,
            node=node,
            resolved=tuple(resolved),
            func_ref_args=tuple(refs),
            precise=precise,
            via_fallback=via_fallback,
        )
        self.call_sites.append(site)
        for callee in resolved if precise else ():
            self._add_edge(scope, callee)
        for ref in refs:
            self._add_edge(scope, ref)

    def _record_attr_assigns(
        self, node: ast.Assign, scope: str, mod: ModuleNode
    ) -> None:
        value_is_none = (
            isinstance(node.value, ast.Constant) and node.value.value is None
        )
        for target in node.targets:
            self._record_mutation_target(
                target, scope, mod, node.lineno, node.col_offset,
                value_is_none,
            )

    def _record_other_mutations(
        self, node: ast.AST, scope: str, mod: ModuleNode
    ) -> None:
        """Capture ``x.attr += v`` / ``x.attr[k] += v`` / ``del x.attr[k]``."""
        if isinstance(node, ast.AugAssign):
            targets: List[ast.expr] = [node.target]
        else:
            targets = list(node.targets)  # type: ignore[attr-defined]
        for target in targets:
            self._record_mutation_target(
                target, scope, mod, node.lineno, node.col_offset, False
            )

    def _record_mutation_target(
        self,
        target: ast.expr,
        scope: str,
        mod: ModuleNode,
        lineno: int,
        col: int,
        value_is_none: bool,
    ) -> None:
        if isinstance(target, ast.Subscript):
            # ``x.attr[k] = ...`` mutates the container held in ``x.attr``.
            if not isinstance(target.value, ast.Attribute):
                return
            target = target.value
        if not isinstance(target, ast.Attribute):
            return
        try:
            target_text = ast.unparse(target.value)
        except Exception:
            target_text = "<expr>"
        self.attr_assigns.append(
            AttrAssign(
                caller=scope,
                module=mod.name,
                target=target_text,
                attr=target.attr,
                lineno=lineno,
                col=col,
                value_is_none=value_is_none,
            )
        )

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
