"""The analyzer's one scoped walk: each module's nodes, filed by function.

Every analysis asks its questions per function: which calls it makes, what
it mutates, what it raises, which ``try`` handlers cover a site.
:func:`walk_module` visits each node of a module once and files it under
the function scope Python evaluates it in:

* every def is its own :class:`Scope`, named by the analyzer's one
  qualname rule, the dotted path of its enclosing defs and classes
  (``m:outer.Local.tick``, ``m:Outer.Inner.run``); a module's top-level
  code is the ``m:<module>`` pseudo-function;
* a def's decorators, defaults and annotations, a class's decorators,
  bases and keywords, and a class body run in the *enclosing* scope, when
  the ``def`` or ``class`` statement executes;
* lambda and comprehension bodies stay with their enclosing function, an
  over-approximation (a lambda's body runs when it is called).

The call graph, effect inference, exception flow, the dataflow engine's
scopes and the per-file rules all read these records; none of them walks
a function body to decide scope for itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Pseudo-function name holding a module's top-level statements.
MODULE_SCOPE = "<module>"

Handlers = Tuple[ast.ExceptHandler, ...]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_TRIES = (ast.Try, getattr(ast, "TryStar", ast.Try))
_MATCH_CASE = getattr(ast, "match_case", ())
#: Expression fields holding only context/operator singletons.
_LEAF_FIELDS = frozenset({"ctx", "op", "ops"})


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


@dataclass
class CallSite:
    """One call ``f(...)`` or ``recv.m(...)``.  The walk records the site;
    :class:`~repro.analysis.projectgraph.ProjectGraph` fills in the
    resolution."""

    caller: str  # qualname of the enclosing function scope
    module: str
    callee_name: str  # bare name at the call site (``m`` in ``recv.m()``)
    receiver: Optional[str]  # rendered receiver expression, None for ``f()``
    lineno: int
    col: int
    node: ast.Call
    #: Handlers of every ``try`` whose body encloses the site in its scope.
    handlers: Handlers = ()
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


@dataclass(frozen=True)
class MutationSite:
    """One write through an attribute or to a declared ``global``.

    Every target shape counts: ``=`` / annotated ``=`` / ``+=`` / ``del``
    / ``for`` targets, tuple and starred targets element by element, and
    subscripts unwrapped to what they mutate (``x.attr[k] = v`` writes
    ``x.attr``).
    """

    stmt: ast.stmt
    target: ast.expr  # the ast.Attribute, or the ast.Name of a global
    receiver: Optional[str]  # rendered ``x`` of an attribute target

    @property
    def value_is_none(self) -> bool:
        value = getattr(self.stmt, "value", None)
        return isinstance(self.stmt, (ast.Assign, ast.AnnAssign)) and (
            isinstance(value, ast.Constant) and value.value is None
        )


@dataclass(eq=False)
class Scope:
    """One function (or a module's top-level code) and everything the walk
    filed under it."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # the def, or the ast.Module for top-level code
    parent: Optional[str]  # the enclosing scope's qualname
    #: The class whose body defines this def (it is a method).
    class_def: Optional[ast.ClassDef]
    #: The class ``self`` belongs to: a method's, or its enclosing method's.
    method_class: Optional[ast.ClassDef]
    calls: List[CallSite] = field(default_factory=list)
    mutations: List[MutationSite] = field(default_factory=list)
    raises: List[Tuple[ast.Raise, Handlers]] = field(default_factory=list)
    #: Every node the scope evaluates, in source order.
    nodes: List[ast.AST] = field(default_factory=list)
    globals: Set[str] = field(default_factory=set)

    @property
    def cls(self) -> Optional[str]:
        return self.class_def.name if self.class_def is not None else None

    @property
    def method_cls(self) -> Optional[str]:
        cls = self.method_class
        return cls.name if cls is not None else None

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)

    @property
    def args(self) -> Optional[ast.arguments]:
        return getattr(self.node, "args", None)

    @property
    def params(self) -> Tuple[str, ...]:
        """Positional parameter names, ``self`` included."""
        args = self.args
        if args is None:
            return ()
        return tuple(a.arg for a in args.posonlyargs + args.args)

    @property
    def self_name(self) -> Optional[str]:
        params = self.params
        return params[0] if self.class_def is not None and params else None

    def annotations(self) -> Dict[str, str]:
        """Parameter name -> the class its annotation names, where one
        plainly does (``x: Peer``, ``x: mod.Peer``, ``x: "Peer"``)."""
        out: Dict[str, str] = {}
        args = self.args
        for arg in () if args is None else (
            args.posonlyargs + args.args + args.kwonlyargs
        ):
            ann = arg.annotation
            if isinstance(ann, ast.Name):
                out[arg.arg] = ann.id
            elif isinstance(ann, ast.Attribute):
                out[arg.arg] = ann.attr
            elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                name = ann.value.split(".")[-1].strip()
                if name:
                    out[arg.arg] = name
        return out


@dataclass
class ModuleWalk:
    """One module's scopes plus the module-wide facts the walk met."""

    #: qualname -> scope; the module pseudo-function first, then every
    #: def in source order.  A redefinition (``@x.setter def x``) adds its
    #: sites to the first def's scope, and ``node`` becomes the latest def.
    scopes: Dict[str, Scope] = field(default_factory=dict)
    classes: List[ast.ClassDef] = field(default_factory=list)
    imports: List[ast.stmt] = field(default_factory=list)
    #: ``if TYPE_CHECKING:`` blocks, wherever they sit.
    type_checking: List[ast.If] = field(default_factory=list)

    def call_sites(self) -> Iterator[CallSite]:
        for scope in self.scopes.values():
            yield from scope.calls


def walk_module(module_name: str, tree: ast.Module) -> ModuleWalk:
    """The one scoped walk over ``tree`` (see the module docstring)."""
    walk = ModuleWalk()
    top = Scope(
        f"{module_name}:{MODULE_SCOPE}", module_name, MODULE_SCOPE, tree,
        None, None, None,
    )
    walk.scopes[top.qualname] = top
    _Walker(module_name, walk).stmts(tree.body, top, [], None, ())
    return walk


def _is_type_checking(test: ast.expr) -> bool:
    name = test.attr if isinstance(test, ast.Attribute) else getattr(
        test, "id", None
    )
    return name == "TYPE_CHECKING"


class _Walker:
    def __init__(self, module: str, out: ModuleWalk) -> None:
        self.module = module
        self.out = out

    def stmts(
        self,
        body: Sequence[ast.stmt],
        scope: Scope,
        path: List[str],
        class_def: Optional[ast.ClassDef],
        handlers: Handlers,
    ) -> None:
        """Statements run in ``scope``; ``class_def`` is the class whose
        body they are directly in, ``handlers`` the ``try`` handlers
        covering them."""
        for stmt in body:
            scope.nodes.append(stmt)
            if isinstance(stmt, _DEFS):
                self._def(stmt, scope, path, class_def, handlers)
            elif isinstance(stmt, ast.ClassDef):
                self.out.classes.append(stmt)
                for expr in stmt.decorator_list + stmt.bases + [
                    kw.value for kw in stmt.keywords
                ]:
                    self.expr(expr, scope, handlers)
                self.stmts(
                    stmt.body, scope, path + [stmt.name], stmt, handlers
                )
            elif isinstance(stmt, _TRIES):
                self.stmts(
                    stmt.body, scope, path, class_def,
                    handlers + tuple(stmt.handlers),
                )
                for handler in stmt.handlers:
                    if handler.type is not None:
                        self.expr(handler.type, scope, handlers)
                    self.stmts(handler.body, scope, path, class_def, handlers)
                self.stmts(stmt.orelse, scope, path, class_def, handlers)
                self.stmts(stmt.finalbody, scope, path, class_def, handlers)
            else:
                self._simple(stmt, scope, path, class_def, handlers)

    def _def(
        self,
        node: ast.FunctionDef,  # or ast.AsyncFunctionDef
        scope: Scope,
        path: List[str],
        class_def: Optional[ast.ClassDef],
        handlers: Handlers,
    ) -> None:
        args = node.args
        every_arg = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None
        ]
        for expr in (
            node.decorator_list
            + args.defaults
            + args.kw_defaults
            + [a.annotation for a in every_arg]
            + [node.returns]
        ):
            if expr is not None:
                self.expr(expr, scope, handlers)
        path = path + [node.name]
        qual = f"{self.module}:{'.'.join(path)}"
        inner = self.out.scopes.get(qual)
        if inner is None:
            inner = self.out.scopes[qual] = Scope(
                qual, self.module, node.name, node,
                scope.qualname, class_def,
                class_def if class_def is not None else scope.method_class,
            )
        else:
            inner.node = node
        self.stmts(node.body, inner, path, None, ())

    def _simple(
        self,
        stmt: ast.stmt,
        scope: Scope,
        path: List[str],
        class_def: Optional[ast.ClassDef],
        handlers: Handlers,
    ) -> None:
        if isinstance(stmt, (ast.Assign, ast.Delete)):
            self._targets(stmt.targets, stmt, scope)
        elif isinstance(stmt, (ast.AugAssign, ast.For, ast.AsyncFor)) or (
            isinstance(stmt, ast.AnnAssign) and stmt.value is not None
        ):
            self._targets([stmt.target], stmt, scope)  # type: ignore[attr-defined]
        elif isinstance(stmt, ast.Raise):
            scope.raises.append((stmt, handlers))
        elif isinstance(stmt, ast.Global):
            scope.globals.update(stmt.names)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self.out.imports.append(stmt)
        elif isinstance(stmt, ast.If) and _is_type_checking(stmt.test):
            self.out.type_checking.append(stmt)
        for name in stmt._fields:
            value = getattr(stmt, name, None)
            if isinstance(value, ast.AST):
                self.expr(value, scope, handlers)
            elif not isinstance(value, list) or not value:
                continue
            elif isinstance(value[0], ast.stmt):
                self.stmts(value, scope, path, class_def, handlers)
            elif isinstance(value[0], _MATCH_CASE):
                for case in value:
                    self.expr(case.pattern, scope, handlers)
                    if case.guard is not None:
                        self.expr(case.guard, scope, handlers)
                    self.stmts(case.body, scope, path, class_def, handlers)
            else:
                for item in value:
                    if isinstance(item, ast.AST):
                        self.expr(item, scope, handlers)

    def _targets(
        self, targets: Sequence[ast.expr], stmt: ast.stmt, scope: Scope
    ) -> None:
        for target in targets:
            while isinstance(target, (ast.Starred, ast.Subscript)):
                target = target.value
            if isinstance(target, (ast.Tuple, ast.List)):
                self._targets(target.elts, stmt, scope)
            elif isinstance(target, ast.Attribute):
                scope.mutations.append(
                    MutationSite(stmt, target, ast.unparse(target.value))
                )
            elif isinstance(target, ast.Name) and target.id in scope.globals:
                scope.mutations.append(MutationSite(stmt, target, None))

    def expr(self, node: ast.AST, scope: Scope, handlers: Handlers) -> None:
        """An expression (or other non-statement node) and its subtree."""
        scope.nodes.append(node)
        if isinstance(node, ast.Call):
            func = node.func
            receiver: Optional[str] = None
            if isinstance(func, ast.Attribute):
                name = func.attr
                receiver = ast.unparse(func.value)
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                name = ""  # a call on a call result: nothing to name
            if name:
                scope.calls.append(
                    CallSite(
                        scope.qualname, self.module, name, receiver,
                        node.lineno, node.col_offset, node, handlers,
                    )
                )
        for name in node._fields:
            if name in _LEAF_FIELDS:
                continue
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                self.expr(value, scope, handlers)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self.expr(item, scope, handlers)
