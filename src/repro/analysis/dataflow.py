"""Value-flow engine: per-function def-use summaries + interprocedural taint.

Call-graph reachability asks "does a *path* exist"; it cannot see *which
value* travels it.  This module adds the missing half in two phases:

**Phase A — per-function flow summaries** (:class:`FunctionFlow`).  Each
function (and each module's top-level pseudo-function) is abstractly
interpreted once, flow-sensitively: assignments are strong updates,
aug-assigns weak ones, tuple unpacking binds element-wise when the shapes
match, branches merge by union, loop bodies run twice so loop-carried flow
is seen, ``except X as e`` kills then rebinds, comprehensions bind their
generator targets, and writes to ``self.attr`` land in a per-attribute
*cell* that Phase B links across the methods of a class.  The summary is
spec-independent — pure def-use edges between abstract value nodes.

**Phase B — interprocedural taint** (:class:`TaintEngine`).  A breadth-
first search over global ``(function, node)`` pairs, stitched through the
:class:`~repro.analysis.projectgraph.ProjectGraph`: at a *precisely*
resolved call site, argument nodes splice into the callee's parameters and
the callee's return node feeds the caller's call-result node; at ambiguous
or library calls, taint flows conservatively through (arguments to
result) — unless the callee is a declared *sanitizer*, which cuts the flow
entirely.  ``self.attr`` cells of one method link to the same attribute's
cells in every other method of the class.  Sources, sinks, sanitizers and
guards are declarative (:class:`TaintSpec`); a finding is emitted only when
tainted data reaches a sink argument with no guard *must-executed* before
the sink in its function and no guard reachable (over the graph's reliable
edges) from the lexical scope chain of either endpoint (the closure-under-
``call_resilient`` idiom).  Every finding carries the actual source-to-sink
hop list.

Everything iterates in sorted order; two runs over the same tree produce
identical findings and identical traces regardless of input file order.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.scopes import CallSite, ModuleWalk, Scope

#: Abstract value node, one of::
#:
#:     ("param", name)             a parameter
#:     ("ret", lineno, col)        the result of the call whose callee
#:                                 expression *ends* at (lineno, col) —
#:                                 see :class:`LocalCall`
#:     ("arg", lineno, col, pos)   a value passed at that call; pos is an
#:                                 int or "kw:<name>"
#:     ("recv", lineno, col)       the receiver value at that call
#:     ("attr", base, name, l, c)  an attribute read ``<base>.<name>``
#:     ("cell", name)              the ``self.<name>`` storage cell
#:     ("obj", lineno, col)        a container literal / comprehension
#:     ("return",)                 the function's return value
Node = Tuple
RETURN: Node = ("return",)

#: Container methods that push an argument into their receiver.
_MUTATORS = frozenset(
    {"add", "append", "appendleft", "extend", "extendleft", "insert",
     "setdefault", "update", "push"}
)

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def receiver_tokens(text: Optional[str]) -> FrozenSet[str]:
    """Identifier tokens of a rendered receiver (``self._backlog`` does
    not contain the token ``log``; ``self.meta_log`` does not either —
    only ``meta_log``)."""
    if not text:
        return frozenset()
    return frozenset(_TOKEN_RE.findall(text))


@dataclass
class LocalCall:
    """One syntactic call inside one function, summary-side.

    ``(lineno, col)`` is the *end of the callee expression* — unique along
    a chain like ``x.f().g()``, where both ``ast.Call`` nodes share the
    chain's start position.  ``site`` is the same call in the scope's walk,
    which the graph resolved.
    """

    lineno: int
    col: int
    site: CallSite
    #: Bare callee names that have *definitely* executed before this site
    #: on every path (branch merges intersect; loops restore).
    must_before: FrozenSet[str]


@dataclass
class FunctionFlow:
    """The def-use summary of one function scope."""

    scope: Scope
    param_names: Tuple[str, ...]
    kwonly_names: Tuple[str, ...]
    vararg: Optional[str]
    kwarg: Optional[str]
    succ: Dict[Node, Set[Node]] = field(default_factory=dict)
    calls: Dict[Tuple[int, int], LocalCall] = field(default_factory=dict)
    #: Every attribute read, as ``(base_text, attr, lineno, col)``.
    attr_reads: List[Tuple[str, str, int, int]] = field(default_factory=list)


def _merge_envs(
    a: Dict[str, Set[Node]], b: Dict[str, Set[Node]]
) -> Dict[str, Set[Node]]:
    merged: Dict[str, Set[Node]] = {k: set(v) for k, v in a.items()}
    for key, nodes in b.items():
        merged.setdefault(key, set()).update(nodes)
    return merged


class _FlowExtractor:
    """Flow-sensitive abstract interpreter for one function body."""

    def __init__(self, flow: FunctionFlow, self_name: Optional[str]) -> None:
        self.flow = flow
        self.self_name = self_name
        self.sites = {site.node: site for site in flow.scope.calls}
        self.env: Dict[str, Set[Node]] = {}
        self.must: Set[str] = set()
        for name in flow.param_names + flow.kwonly_names:
            self.env[name] = {("param", name)}
        for name in (flow.vararg, flow.kwarg):
            if name:
                self.env[name] = {("param", name)}

    # -- plumbing ------------------------------------------------------

    def _edge(self, src: Node, dst: Node) -> None:
        self.flow.succ.setdefault(src, set()).add(dst)

    def _edges(self, srcs: Set[Node], dst: Node) -> None:
        # repro: allow[SIM003] edges land in a set; union order cannot matter
        for src in srcs:
            self._edge(src, dst)

    def _snapshot(self) -> Dict[str, Set[Node]]:
        return {k: set(v) for k, v in self.env.items()}

    # -- expressions ---------------------------------------------------

    def eval(self, node: Optional[ast.expr]) -> Set[Node]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attr(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            obj: Node = ("obj", node.lineno, node.col_offset)
            for elt in node.elts:
                self._edges(self.eval(elt), obj)
            return {obj}
        if isinstance(node, ast.Dict):
            obj = ("obj", node.lineno, node.col_offset)
            for key in node.keys:
                if key is not None:
                    self._edges(self.eval(key), obj)
            for value in node.values:
                self._edges(self.eval(value), obj)
            return {obj}
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: Set[Node] = set()
            for value in node.values:
                out |= self.eval(value)
            return out
        if isinstance(node, ast.Compare):
            out = self.eval(node.left)
            for comparator in node.comparators:
                out |= self.eval(comparator)
            return out
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.Subscript):
            out = self.eval(node.value)
            self.eval(node.slice)
            return out
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                self.eval(part)
            return set()
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.JoinedStr):
            out = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self.eval(value.value)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            nodes = self.eval(node.value)
            self.bind(node.target, nodes)
            return nodes
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value)
        if isinstance(node, ast.Yield):
            self._edges(self.eval(node.value), RETURN)
            return set()
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node, [node.key, node.value])
        out = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.eval(child)
        return out

    def _eval_comp(self, node: ast.expr, elts: Sequence[ast.expr]) -> Set[Node]:
        saved = self._snapshot()
        for gen in node.generators:  # type: ignore[attr-defined]
            self.bind(gen.target, self.eval(gen.iter))
            for cond in gen.ifs:
                self.eval(cond)
        obj: Node = ("obj", node.lineno, node.col_offset)
        for elt in elts:
            self._edges(self.eval(elt), obj)
        self.env = saved
        return {obj}

    def _eval_attr(self, node: ast.Attribute) -> Set[Node]:
        try:
            base_text = ast.unparse(node.value)
        except Exception:
            base_text = "<expr>"
        base_nodes = self.eval(node.value)
        attr_node: Node = (
            "attr", base_text, node.attr, node.lineno, node.col_offset
        )
        self.flow.attr_reads.append(
            (base_text, node.attr, node.lineno, node.col_offset)
        )
        self._edges(base_nodes, attr_node)
        if self.self_name is not None and base_text == self.self_name:
            self._edge(("cell", node.attr), attr_node)
        return {attr_node}

    def _eval_call(self, node: ast.Call) -> Set[Node]:
        func = node.func
        # The Call node's own position is the start of the whole receiver
        # chain, shared by every link of ``x.f().g()``; the end of the
        # callee expression is unique per link.
        key = (
            func.end_lineno or node.lineno,
            func.end_col_offset or node.col_offset,
        )
        site = self.sites.get(node)
        receiver_nodes: Set[Node] = set()
        if site is not None and site.receiver is not None:
            receiver_nodes = self.eval(func.value)  # type: ignore[attr-defined]
        if site is None:
            # A call on a call result: nothing nameable — taint flows
            # through arguments conservatively.
            self.eval(func)
            out: Set[Node] = set()
            for arg in node.args:
                out |= self.eval(arg)
            for kw in node.keywords:
                out |= self.eval(kw.value)
            return out
        for i, arg in enumerate(node.args):
            arg_node: Node = ("arg", key[0], key[1], i)
            self._edges(self.eval(arg), arg_node)
            if site.callee_name in _MUTATORS:
                # ``acc.append(x)`` pushes x into the object acc holds.
                # repro: allow[SIM003] edges land in a set; union order cannot matter
                for recv in receiver_nodes:
                    self._edge(arg_node, recv)
        for kw in node.keywords:
            pos: object = f"kw:{kw.arg}" if kw.arg else "kw:**"
            arg_node = ("arg", key[0], key[1], pos)
            self._edges(self.eval(kw.value), arg_node)
        if site.receiver is not None:
            self._edges(receiver_nodes, ("recv", key[0], key[1]))
        must = frozenset(self.must)
        prev = self.flow.calls.get(key)
        if prev is None:
            self.flow.calls[key] = LocalCall(
                lineno=key[0],
                col=key[1],
                site=site,
                must_before=must,
            )
        else:
            # Loop bodies run twice: only calls on *every* path count.
            prev.must_before = prev.must_before & must
        self.must.add(site.callee_name)
        return {("ret", key[0], key[1])}

    # -- binding -------------------------------------------------------

    def bind(
        self, target: ast.expr, nodes: Set[Node], weak: bool = False
    ) -> None:
        if isinstance(target, ast.Name):
            if weak:
                self.env[target.id] = self.env.get(target.id, set()) | set(nodes)
            else:
                self.env[target.id] = set(nodes)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, nodes, weak=weak)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, nodes, weak=weak)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if (
                self.self_name is not None
                and isinstance(base, ast.Name)
                and base.id == self.self_name
            ):
                self._edges(nodes, ("cell", target.attr))
            else:
                # Writing into an object taints the object (smashed).
                for base_node in self.eval(base):
                    self._edges(nodes, base_node)
        elif isinstance(target, ast.Subscript):
            for base_node in self.eval(target.value):
                self._edges(nodes, base_node)
            self.eval(target.slice)

    def _exec_assign(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        # Element-wise precision: ``a, b = x, y`` binds a←x, b←y rather
        # than smashing both sides together.
        if (
            isinstance(value, (ast.Tuple, ast.List))
            and all(isinstance(t, (ast.Tuple, ast.List)) for t in targets)
            and all(
                len(t.elts) == len(value.elts)  # type: ignore[attr-defined]
                and not any(isinstance(e, ast.Starred) for e in t.elts)  # type: ignore[attr-defined]
                for t in targets
            )
        ):
            elt_nodes = [self.eval(elt) for elt in value.elts]
            for target in targets:
                for sub, nodes in zip(target.elts, elt_nodes):  # type: ignore[attr-defined]
                    self.bind(sub, nodes)
            return
        nodes = self.eval(value)
        for target in targets:
            self.bind(target, nodes)

    # -- statements ----------------------------------------------------

    def exec_body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            nodes = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                nodes |= self.env.get(stmt.target.id, set())
            self.bind(stmt.target, nodes, weak=True)
        elif isinstance(stmt, ast.Return):
            self._edges(self.eval(stmt.value), RETURN)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exec_loop(stmt.body, stmt.orelse, stmt)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._exec_loop(stmt.body, stmt.orelse, None)
        elif isinstance(stmt, ast.Try) or stmt.__class__.__name__ == "TryStar":
            self._exec_try(stmt)  # type: ignore[arg-type]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                nodes = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, nodes)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Raise):
            self.eval(stmt.exc)
            self.eval(stmt.cause)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
            self.eval(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
                else:
                    self.eval(target)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in stmt.decorator_list:
                self.eval(dec)
            for default in list(stmt.args.defaults) + [
                d for d in stmt.args.kw_defaults if d is not None
            ]:
                self.eval(default)
            self.env[stmt.name] = set()
        elif isinstance(stmt, ast.ClassDef):
            for dec in stmt.decorator_list:
                self.eval(dec)
            for base in stmt.bases:
                self.eval(base)
            self.env[stmt.name] = set()
        elif isinstance(
            stmt,
            (ast.Import, ast.ImportFrom, ast.Pass, ast.Break, ast.Continue,
             ast.Global, ast.Nonlocal),
        ):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def _exec_if(self, stmt: ast.If) -> None:
        self.eval(stmt.test)
        env0, must0 = self._snapshot(), set(self.must)
        self.exec_body(stmt.body)
        env1, must1 = self.env, self.must
        self.env, self.must = env0, must0
        self.exec_body(stmt.orelse)
        self.env = _merge_envs(env1, self.env)
        self.must = must1 & self.must

    def _exec_loop(
        self,
        body: Sequence[ast.stmt],
        orelse: Sequence[ast.stmt],
        for_stmt: Optional[ast.stmt],
    ) -> None:
        iter_nodes: Set[Node] = set()
        if for_stmt is not None:
            iter_nodes = self.eval(for_stmt.iter)  # type: ignore[attr-defined]
        must0 = set(self.must)
        # Two passes propagate loop-carried flow (x of iteration N used
        # at iteration N+1); envs merge by union so nothing is lost.
        for _ in range(2):
            if for_stmt is not None:
                self.bind(for_stmt.target, iter_nodes, weak=True)  # type: ignore[attr-defined]
            before = self._snapshot()
            self.exec_body(body)
            self.env = _merge_envs(self.env, before)
        self.must = must0  # the body may never run
        self.exec_body(orelse)

    def _exec_try(self, stmt: ast.Try) -> None:
        env0, must0 = self._snapshot(), set(self.must)
        self.exec_body(stmt.body)
        self.exec_body(stmt.orelse)
        # A handler can observe any prefix of the body's effects.
        handler_base = _merge_envs(self.env, env0)
        out_envs = [self._snapshot()]
        body_must = set(self.must)
        for handler in stmt.handlers:
            self.env = {k: set(v) for k, v in handler_base.items()}
            self.eval(handler.type)
            if handler.name:
                self.env[handler.name] = set()  # ``as e`` rebinds, kills
            self.exec_body(handler.body)
            if handler.name:
                self.env.pop(handler.name, None)  # unbound past the handler
            out_envs.append(self._snapshot())
        merged = out_envs[0]
        for env in out_envs[1:]:
            merged = _merge_envs(merged, env)
        self.env = merged
        # With no handlers (try/finally) the body completed or we are
        # unwinding; otherwise a handler may have swallowed mid-body.
        self.must = body_must if not stmt.handlers else must0
        self.exec_body(stmt.finalbody)


# ----------------------------------------------------------------------
# per-module extraction


def extract_module_flows(walk: ModuleWalk) -> Dict[str, FunctionFlow]:
    """Phase A for one module: a summary per scope of its walk."""
    flows: Dict[str, FunctionFlow] = {}
    for qualname, scope in walk.scopes.items():
        args = scope.args
        flow = FunctionFlow(
            scope=scope,
            param_names=scope.params,
            kwonly_names=tuple(a.arg for a in args.kwonlyargs) if args else (),
            vararg=args.vararg.arg if args and args.vararg else None,
            kwarg=args.kwarg.arg if args and args.kwarg else None,
        )
        _FlowExtractor(flow, scope.self_name).exec_body(
            scope.node.body  # type: ignore[attr-defined]
        )
        flows[qualname] = flow
    return flows


# ----------------------------------------------------------------------
# Phase B: declarative specs + the interprocedural taint search


@dataclass(frozen=True)
class SourceSpec:
    """What makes a value tainted."""

    kind: str
    describe: str
    #: Callee names whose *results* are sources.
    calls: Tuple[str, ...] = ()
    #: Only calls on a remote receiver (present, not self/cls) taint.
    remote_only: bool = False
    #: Only a fetch without an effective user taints.
    require_no_user: bool = False
    #: Attribute reads ``(base_token, attr)`` that are sources; a base
    #: token "" matches any base.
    attrs: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SinkSpec:
    """Where tainted values must not arrive."""

    label: str
    calls: Tuple[str, ...]
    #: Receiver must contain one of these identifier tokens (None = any).
    receiver_tokens: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class TaintSpec:
    """One source-family → sink-family question, with its escape hatches."""

    name: str
    sources: Tuple[SourceSpec, ...]
    sinks: Tuple[SinkSpec, ...]
    #: Calls whose results are *clean* even for tainted inputs.
    sanitizers: Tuple[str, ...] = ()
    #: Calls that, executed before the sink (or reachable from either
    #: endpoint's lexical scope chain), clear the finding.
    guards: Tuple[str, ...] = ()


@dataclass
class TaintHit:
    """One tainted value arriving at one sink argument."""

    spec: TaintSpec
    source: SourceSpec
    sink: SinkSpec
    sink_qual: str
    sink_module: str
    sink_call: LocalCall
    #: Qualname of the function the source seed lives in.
    origin_qual: str
    origin_desc: str
    #: (path, lineno, note) hops, source first, sink last.
    trace: Tuple[Tuple[str, int, str], ...]


GlobalNode = Tuple  # (qualname, Node) or ("~cell", module, cls, attr)


def _call_has_no_user(call: LocalCall) -> bool:
    """``execute_fetch(table, sql, None)`` or ``user=None``, or no user."""
    node = call.site.node
    users = node.args[2:3] + [
        kw.value for kw in node.keywords if kw.arg == "user"
    ]
    return all(isinstance(u, ast.Constant) and u.value is None for u in users)


def _match_source_call(source: SourceSpec, call: LocalCall) -> bool:
    if call.site.callee_name not in source.calls:
        return False
    if source.remote_only and call.site.receiver in (None, "self", "cls"):
        return False
    if source.require_no_user and not _call_has_no_user(call):
        return False
    return True


def _match_sink(sink: SinkSpec, call: LocalCall) -> bool:
    if call.site.callee_name not in sink.calls:
        return False
    return sink.receiver_tokens is None or bool(
        receiver_tokens(call.site.receiver) & set(sink.receiver_tokens)
    )


class TaintEngine:
    """Phase B: run :class:`TaintSpec` questions over one graph + flows."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.flows: Dict[str, FunctionFlow] = {}
        for name in sorted(graph.modules):
            self.flows.update(
                extract_module_flows(graph.modules[name].walk)
            )
        flows = self.flows
        # callee → caller-side ("ret", lineno, col) coordinates of every
        # precise call into it.  Built from the flows (not the raw graph
        # sites) so the coordinates match the summary's call keys.
        self._ret_links: Dict[str, List[Tuple[str, int, int]]] = {}
        for qual in sorted(flows):
            flow = flows[qual]
            for key in sorted(flow.calls):
                call = flow.calls[key]
                site = call.site
                if not (site.precise and site.resolved):
                    continue
                for callee in sorted(site.resolved):
                    if callee in flows:
                        self._ret_links.setdefault(callee, []).append(
                            (qual, call.lineno, call.col)
                        )
        self._class_methods: Dict[Tuple[str, str], List[str]] = {}
        for qual in sorted(flows):
            flow = flows[qual]
            if flow.scope.cls is not None:
                self._class_methods.setdefault(
                    (flow.scope.module, flow.scope.cls), []
                ).append(qual)

    # -- splicing ------------------------------------------------------

    def _param_for(
        self, flow: FunctionFlow, call: LocalCall, node: Node
    ) -> Optional[str]:
        """The callee parameter a caller-side arg/recv node lands in."""
        offset = 1 if flow.scope.cls is not None else 0
        if node[0] == "recv":
            if offset and flow.param_names:
                return flow.param_names[0]
            return None
        pos = node[3]
        if isinstance(pos, int):
            idx = pos + offset
            if idx < len(flow.param_names):
                return flow.param_names[idx]
            return flow.vararg
        name = pos[3:]  # strip "kw:"
        if name == "**":
            return None
        if name in flow.param_names or name in flow.kwonly_names:
            return name
        return flow.kwarg

    def _expand(
        self, gnode: GlobalNode, spec: TaintSpec
    ) -> List[GlobalNode]:
        if gnode[0] == "~cell":
            _, module, cls, attr = gnode
            return [
                (qual, ("cell", attr))
                for qual in self._class_methods.get((module, cls), ())
            ]
        qual, node = gnode
        flow = self.flows.get(qual)
        if flow is None:
            return []
        out: List[GlobalNode] = [
            (qual, succ) for succ in sorted(flow.succ.get(node, ()), key=repr)
        ]
        kind = node[0]
        if kind in ("arg", "recv"):
            lineno, col = node[1], node[2]
            call = flow.calls.get((lineno, col))
            if call is not None:
                if (
                    call.site.callee_name in spec.sanitizers
                    or call.site.callee_name in spec.guards
                ):
                    # Sanitizers cut arg→result flow; so do guards — a
                    # value handed to ``verify(cert)`` is being *checked*,
                    # and following it through the checker's internals
                    # (and back out of the checker's other call sites)
                    # only manufactures context-insensitive noise.
                    return out
                site = call.site
                spliced = False
                if site.precise and site.resolved:
                    for callee in sorted(site.resolved):
                        callee_flow = self.flows.get(callee)
                        if callee_flow is None:
                            continue
                        param = self._param_for(callee_flow, call, node)
                        if param is not None:
                            out.append((callee, ("param", param)))
                            spliced = True
                if not spliced:
                    # Ambiguous or library call: assume taint-through.
                    out.append((qual, ("ret", lineno, col)))
        elif kind == "cell" and flow.scope.cls is not None:
            out.append(("~cell", flow.scope.module, flow.scope.cls, node[1]))
        elif kind == "return":
            for caller, lineno, col in self._ret_links.get(qual, ()):
                out.append((caller, ("ret", lineno, col)))
        return out

    # -- rendering -----------------------------------------------------

    def _node_location(self, gnode: GlobalNode) -> Tuple[str, int]:
        if gnode[0] == "~cell":
            module = self.graph.modules.get(gnode[1])
            return (module.path if module else gnode[1], 1)
        qual, node = gnode
        flow = self.flows[qual]
        module = self.graph.modules.get(flow.scope.module)
        path = module.path if module else flow.scope.module
        if node[0] in ("ret", "arg", "recv", "obj"):
            return path, node[1]
        if node[0] == "attr":
            return path, node[3]
        return path, flow.scope.lineno

    def _node_note(self, gnode: GlobalNode) -> str:
        if gnode[0] == "~cell":
            return f"attribute {gnode[3]!r} shared across class {gnode[2]}"
        qual, node = gnode
        flow = self.flows[qual]
        kind = node[0]
        if kind in ("ret", "arg", "recv"):
            call = flow.calls.get((node[1], node[2]))
            callee = call.site.callee_name if call else "?"
            if kind == "ret":
                return f"result of {callee}(...)"
            if kind == "recv":
                return f"receiver of {callee}(...)"
            return f"argument {node[3]} of {callee}(...)"
        if kind == "param":
            return f"parameter {node[1]!r} of {flow.scope.name}"
        if kind == "cell":
            return f"self.{node[1]} in {flow.scope.name}"
        if kind == "attr":
            return f"read of {node[1]}.{node[2]}"
        if kind == "obj":
            return f"container in {flow.scope.name}"
        return f"return value of {flow.scope.name}"

    def _trace(
        self,
        gnode: GlobalNode,
        preds: Dict[GlobalNode, GlobalNode],
        origin_desc: str,
    ) -> Tuple[Tuple[str, int, str], ...]:
        chain: List[GlobalNode] = [gnode]
        seen = {gnode}
        while chain[-1] in preds:
            prev = preds[chain[-1]]
            if prev in seen:
                break
            seen.add(prev)
            chain.append(prev)
        chain.reverse()
        hops: List[Tuple[str, int, str]] = []
        for i, hop in enumerate(chain):
            path, lineno = self._node_location(hop)
            note = self._node_note(hop)
            if i == 0:
                note = f"source: {origin_desc}"
            if hops and hops[-1][0] == path and hops[-1][1] == lineno:
                continue  # collapse same-line steps
            hops.append((path, lineno, note))
        return tuple(hops)

    # -- the search ----------------------------------------------------

    def _seeds(
        self, spec: TaintSpec
    ) -> List[Tuple[GlobalNode, SourceSpec, str]]:
        seeds: List[Tuple[GlobalNode, SourceSpec, str]] = []
        for qual in sorted(self.flows):
            flow = self.flows[qual]
            for source in spec.sources:
                for key in sorted(flow.calls):
                    call = flow.calls[key]
                    if _match_source_call(source, call):
                        target = (
                            f"{call.site.receiver}.{call.site.callee_name}"
                            if call.site.receiver
                            else call.site.callee_name
                        )
                        seeds.append(
                            (
                                (qual, ("ret", call.lineno, call.col)),
                                source,
                                f"{source.describe} ({target}(...))",
                            )
                        )
                for base, attr, lineno, col in sorted(flow.attr_reads):
                    for base_token, attr_name in source.attrs:
                        if attr != attr_name:
                            continue
                        if base_token and base_token not in receiver_tokens(
                            base
                        ):
                            continue
                        seeds.append(
                            (
                                (qual, ("attr", base, attr, lineno, col)),
                                source,
                                f"{source.describe} ({base}.{attr})",
                            )
                        )
        return seeds

    def _guard_cleared(
        self,
        spec: TaintSpec,
        call: LocalCall,
        sink_qual: str,
        origin_qual: str,
        guards_reaching: Set[str],
    ) -> bool:
        if not spec.guards:
            return False
        if call.must_before & set(spec.guards):
            return True
        # The verifying-sink idiom: the privileged operation checks its
        # own input (``CertificateAuthority.install`` verifies before
        # adopting).  If a guard is precisely reachable from the function
        # actually being called at the sink, the value cannot get through
        # unchecked.
        if any(callee in guards_reaching for callee in call.site.resolved):
            return True
        # The closure idiom: a guard reachable from a lexically *enclosing*
        # scope clears the flow (the closure runs under the parent's
        # check).  The sink/origin function itself gets no such credit —
        # there the guard must be must-executed, or a guard call on one
        # branch would clear a flow on the other.
        for scope in (sink_qual, origin_qual):
            if any(
                fn in guards_reaching
                for i, fn in enumerate(self.graph.scope_chain(scope))
                if i > 0
            ):
                return True
        return False

    def run(self, spec: TaintSpec) -> List[TaintHit]:
        guards_reaching: Set[str] = set()
        if spec.guards:
            guards_reaching = self.graph.functions_reaching(set(spec.guards))
        hits: List[TaintHit] = []
        emitted: Set[Tuple] = set()
        for seed, source, origin_desc in self._seeds(spec):
            origin_qual = seed[0]
            preds: Dict[GlobalNode, GlobalNode] = {}
            visited: Set[GlobalNode] = {seed}
            frontier: List[GlobalNode] = [seed]
            while frontier:
                next_frontier: List[GlobalNode] = []
                for gnode in frontier:
                    if gnode[0] != "~cell":
                        qual, node = gnode
                        if node[0] == "arg":
                            flow = self.flows[qual]
                            call = flow.calls.get((node[1], node[2]))
                            if call is not None:
                                self._check_sink(
                                    spec, source, qual, node, call,
                                    origin_qual, origin_desc,
                                    guards_reaching, preds, emitted, hits,
                                )
                    for succ in self._expand(gnode, spec):
                        if succ not in visited:
                            visited.add(succ)
                            preds[succ] = gnode
                            next_frontier.append(succ)
                frontier = next_frontier
        hits.sort(
            key=lambda h: (
                h.sink_module, h.sink_call.lineno, h.sink_call.col,
                h.origin_desc,
            )
        )
        return hits

    def _check_sink(
        self,
        spec: TaintSpec,
        source: SourceSpec,
        qual: str,
        node: Node,
        call: LocalCall,
        origin_qual: str,
        origin_desc: str,
        guards_reaching: Set[str],
        preds: Dict[GlobalNode, GlobalNode],
        emitted: Set[Tuple],
        hits: List[TaintHit],
    ) -> None:
        for sink in spec.sinks:
            if not _match_sink(sink, call):
                continue
            key = (qual, call.lineno, call.col, origin_qual, sink.label)
            if key in emitted:
                continue
            if self._guard_cleared(
                spec, call, qual, origin_qual, guards_reaching
            ):
                continue
            emitted.add(key)
            flow = self.flows[qual]
            hits.append(
                TaintHit(
                    spec=spec,
                    source=source,
                    sink=sink,
                    sink_qual=qual,
                    sink_module=flow.scope.module,
                    sink_call=call,
                    origin_qual=origin_qual,
                    origin_desc=origin_desc,
                    trace=self._trace((qual, node), preds, origin_desc),
                )
            )
