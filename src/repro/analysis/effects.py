"""Interprocedural effect inference over the project call graph.

The per-file rules answer "what does this line do", the project graph
"who calls whom", and the dataflow engine "where does this value go".
This module answers *what is this function allowed to do at all* — the
question the effect contracts (PURE001, DET003, ATOM001) ask.  Every
function gets an inferred effect signature

    {wallclock, global_random, real_io, network_send,
     mutates(owner class, ...)}

seeded from intrinsic tables (``time.monotonic``, ``random.shuffle``,
``open``, ``sock.sendall``, ``network.transfer``, attribute writes) and
propagated bottom-up over the strongly-connected components of the
:class:`~repro.analysis.projectgraph.ProjectGraph` call graph until a
fixpoint.  Whether an exception escapes is not an effect here: RES004
(:mod:`repro.analysis.exceptionflow`) answers that for the one family a
rule cares about.

Edge discipline — the part that keeps the lattice honest.  The graph's
``edges`` hold only reliable resolutions; effect inference reads the call
sites themselves, so it also weighs the ambiguous candidates the graph
leaves on ``CallSite.resolved``:

* a **reliable** resolution (lexical scope, imports, same-class self-call)
  propagates the callee's full signature;
* a **fallback** candidate (any-method-of-this-name, even when the name is
  project-unique) propagates only when the rendered receiver names the
  candidate's class (``self.log.append`` may inherit
  ``MetadataLog.append``; ``pending.append`` may not) — this is the
  "conservative widening" of ambiguous edges: grounded in receiver text,
  never in wishful uniqueness;
* intrinsics are matched at *every* call site regardless of resolution,
  so ``time.sleep(...)`` is never laundered by an unresolvable alias;
* a function *referenced* as a call argument is assumed invoked by the
  callee (``queue.push(when, handler)`` gives the pusher the handler's
  effects) — over-approximation only raises suspicion, which is the
  correct direction for a purity contract.

Everything is deterministic: modules, functions, edges, SCCs and witness
searches all iterate in sorted order, and causes are computed only after
convergence.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.asthelpers import ImportMap
from repro.analysis.projectgraph import MODULE_SCOPE, ProjectGraph
from repro.analysis.scopes import CallSite, ModuleWalk, MutationSite, Scope

#: Effect atoms.  Tuples so they hash and sort without ceremony::
#:
#:     ("wallclock",)          reads or blocks on the real clock
#:     ("global_random",)      draws from the process-global RNG / OS entropy
#:     ("real_io",)            touches the filesystem, stdio, or a process
#:     ("network_send",)       puts bytes on a wire (real or simulated)
#:     ("mutates", owner)      writes state owned by ``owner`` —
#:                             "module:Class", ":Class" (class not resolved
#:                             to a module) or "module:<globals>"
Atom = Tuple
WALLCLOCK: Atom = ("wallclock",)
GLOBAL_RANDOM: Atom = ("global_random",)
REAL_IO: Atom = ("real_io",)
NETWORK_SEND: Atom = ("network_send",)


def mutates(owner: str) -> Atom:
    """The shared-state-mutation atom for ``owner`` (``module:Class``)."""
    return ("mutates", owner)


def owner_class(owner: str) -> str:
    """Class part of a mutation owner (``repro.core.metalog:MetadataLog``
    → ``MetadataLog``; ``repro.bench:<globals>`` → ``<globals>``)."""
    return owner.rsplit(":", 1)[-1]


def owner_module(owner: str) -> str:
    """Module part of a mutation owner ("" when the class never resolved)."""
    return owner.rsplit(":", 1)[0]


def render_atom(atom: Atom) -> str:
    """Human-facing form of one atom (``mutates(MetadataLog)``)."""
    if atom[0] == "mutates":
        return f"mutates({owner_class(atom[1])})"
    return atom[0]


@dataclass(frozen=True)
class IntrinsicSite:
    """One syntactic point where an effect enters a function directly."""

    atom: Atom
    lineno: int
    col: int
    #: Human cause, e.g. ``time.perf_counter(...)`` or ``self.peers[...] =``.
    text: str


# ----------------------------------------------------------------------
# Intrinsic tables


_TIME_WALLCLOCK = frozenset(
    {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
     "perf_counter_ns", "sleep"}
)
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})
_RANDOM_FUNCS = frozenset(
    {"random", "randint", "randrange", "uniform", "gauss", "normalvariate",
     "choice", "choices", "shuffle", "sample", "getrandbits", "randbytes",
     "seed", "betavariate", "expovariate", "triangular", "paretovariate",
     "vonmisesvariate", "weibullvariate", "lognormvariate", "gammavariate",
     "binomialvariate"}
)
_OS_IO = frozenset(
    {"remove", "unlink", "rename", "replace", "makedirs", "mkdir", "rmdir",
     "removedirs", "system", "popen", "listdir", "scandir", "stat", "walk",
     "truncate", "chmod", "chown", "symlink", "link", "open"}
)
_OSPATH_IO = frozenset(
    {"exists", "isfile", "isdir", "islink", "getsize", "getmtime",
     "getatime", "getctime", "realpath"}
)
#: Method names distinctive enough to mean pathlib regardless of receiver.
_PATHLIB_IO = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes", "touch",
     "iterdir", "hardlink_to", "symlink_to"}
)
_SUBPROCESS_IO = frozenset(
    {"run", "call", "check_call", "check_output", "Popen"}
)
#: Socket method names distinctive enough to flag on any receiver.
_SOCKET_SEND = frozenset({"sendall", "sendto", "recvfrom"})
_SOCKET_MODULE = frozenset({"socket", "create_connection", "create_server"})
_REQUESTS_VERBS = frozenset(
    {"get", "post", "put", "delete", "head", "patch", "request"}
)
#: The project's own wire boundary: a priced transfer on the (simulated)
#: network.  Matched on any receiver but ``self``/``cls`` — calling your
#: own ``transfer`` is implementing the wire, not using it.
_PROJECT_SEND = frozenset({"transfer", "broadcast"})

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {"append", "appendleft", "add", "extend", "extendleft", "insert",
     "update", "setdefault", "pop", "popleft", "popitem", "remove",
     "discard", "clear", "push"}
)

#: Metadata attributes that mark a ``state``-named receiver as the
#: bootstrap's replicated state even without an annotation.  Mirrors
#: the ``BootstrapState`` fields ATOM001 confines to the WAL reducer.
_METADATA_ATTRS = frozenset(
    {"peers", "blacklist", "schemas", "roles", "user_registry", "serials",
     "admission_epochs", "pending_failovers"}
)
_STATE_TOKEN_RE = re.compile(r"\bstate\b")

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z0-9]+|[A-Z]+")


def class_name_tokens(name: str) -> FrozenSet[str]:
    """Lower-case tokens a receiver could plausibly use for a class:
    ``MetadataLog`` → {metadata, log, metadatalog}."""
    pieces = [p.lower() for p in _CAMEL_RE.findall(name)]
    return frozenset(pieces) | {name.lower()}


def receiver_name_tokens(text: Optional[str]) -> FrozenSet[str]:
    """Normalized identifier tokens of a rendered receiver, with naive
    de-pluralization (``self._events`` → {events, event}).  snake_case
    splits into its words plus the joined form, so ``self.metadata_log``
    can match ``MetadataLog``'s tokens."""
    if not text:
        return frozenset()
    out: Set[str] = set()
    for token in _TOKEN_RE.findall(text):
        token = token.lower().lstrip("_")
        if not token or token in ("self", "cls"):
            continue
        words = [w for w in token.split("_") if w]
        for word in words + ["".join(words)]:
            out.add(word)
            if word.endswith("s") and len(word) > 2:
                out.add(word[:-1])
    return frozenset(out)


def _receiver_root(expr: ast.expr) -> Optional[str]:
    """Left-most name of an attribute chain (``a.b.c`` → ``a``)."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


# ----------------------------------------------------------------------
# Phase A: a fold over each module's walk


class _Intrinsics:
    """Folds one module's walk into ``{qualname: [IntrinsicSite]}``: every
    call site through the intrinsic tables, every mutation site through
    the owner tiers of :meth:`_mutation_owner`.  Depends only on the
    module's own source text and imports, never on other modules."""

    def __init__(
        self, module: str, walk: ModuleWalk, imports: ImportMap
    ) -> None:
        self.module = module
        self.imports = imports
        self.local_classes = {cls.name for cls in walk.classes}
        self.sites: Dict[str, List[IntrinsicSite]] = {}
        for qual, scope in walk.scopes.items():
            self.sites[qual] = []
            annotations = scope.annotations()
            for site in scope.calls:
                if site.receiver is None:
                    self._classify_bare_call(
                        site.node, site.callee_name, scope
                    )
                else:
                    self._classify_attr_call(site, scope, annotations)
            for mutation in scope.mutations:
                self._record_mutation(mutation, scope, annotations)

    def _add(self, scope: Scope, node: ast.AST, atom: Atom, text: str) -> None:
        self.sites[scope.qualname].append(
            IntrinsicSite(
                atom=atom,
                lineno=getattr(node, "lineno", scope.lineno or 1),
                col=getattr(node, "col_offset", 0),
                text=text,
            )
        )

    def _classify_bare_call(
        self, node: ast.Call, name: str, scope: Scope
    ) -> None:
        if name in ("open", "input", "print", "breakpoint"):
            self._add(scope, node, REAL_IO, f"{name}(...)")
            return
        origin = self.imports.member_origin(name)
        if origin is None:
            return
        module, member = origin
        if module == "time" and member in _TIME_WALLCLOCK:
            self._add(scope, node, WALLCLOCK, f"time.{member}(...)")
        elif module == "random" and (
            member in _RANDOM_FUNCS or member == "SystemRandom"
        ):
            self._add(scope, node, GLOBAL_RANDOM, f"random.{member}(...)")
        elif module == "os" and member in _OS_IO:
            self._add(scope, node, REAL_IO, f"os.{member}(...)")
        elif module == "os" and member == "urandom":
            self._add(scope, node, GLOBAL_RANDOM, "os.urandom(...)")
            self._add(scope, node, REAL_IO, "os.urandom(...)")
        elif module == "os.path" and member in _OSPATH_IO:
            self._add(scope, node, REAL_IO, f"os.path.{member}(...)")
        elif module == "subprocess" and member in _SUBPROCESS_IO:
            self._add(scope, node, REAL_IO, f"subprocess.{member}(...)")
        elif module == "socket" and member in _SOCKET_MODULE:
            self._add(scope, node, NETWORK_SEND, f"socket.{member}(...)")
            self._add(scope, node, REAL_IO, f"socket.{member}(...)")
        elif module == "urllib.request" and member == "urlopen":
            self._add(scope, node, NETWORK_SEND, "urllib.request.urlopen(...)")
            self._add(scope, node, REAL_IO, "urllib.request.urlopen(...)")

    def _classify_attr_call(
        self, site: CallSite, scope: Scope, annotations: Dict[str, str]
    ) -> None:
        node, name, recv_text = site.node, site.callee_name, site.receiver
        recv = node.func.value  # type: ignore[attr-defined]
        root = _receiver_root(recv)
        recv_module = None
        if root is not None:
            recv_module = self.imports.module_of(root)
            if recv_module is None and root in (
                "time", "random", "os", "socket", "subprocess", "datetime",
                "shutil", "requests", "urllib",
            ):
                recv_module = root
        # stdlib modules by receiver
        if recv_module == "time" and name in _TIME_WALLCLOCK:
            self._add(scope, node, WALLCLOCK, f"{recv_text}.{name}(...)")
        elif name in _DATETIME_NOW and self._is_datetime(root, recv_text):
            self._add(scope, node, WALLCLOCK, f"{recv_text}.{name}(...)")
        elif recv_module == "random" and recv_text == root and (
            name in _RANDOM_FUNCS or name == "SystemRandom"
        ):
            # Only the module itself: ``rng.shuffle`` on a seeded
            # ``random.Random`` instance is deterministic and fine.
            self._add(scope, node, GLOBAL_RANDOM, f"random.{name}(...)")
        elif recv_module == "os" and recv_text in ("os", root) and (
            name in _OS_IO or name == "urandom"
        ):
            if name == "urandom":
                self._add(scope, node, GLOBAL_RANDOM, "os.urandom(...)")
            self._add(scope, node, REAL_IO, f"os.{name}(...)")
        elif recv_text == "os.path" and name in _OSPATH_IO:
            self._add(scope, node, REAL_IO, f"os.path.{name}(...)")
        elif recv_module == "subprocess" and name in _SUBPROCESS_IO:
            self._add(scope, node, REAL_IO, f"subprocess.{name}(...)")
        elif recv_module == "socket" and name in _SOCKET_MODULE:
            self._add(scope, node, NETWORK_SEND, f"socket.{name}(...)")
            self._add(scope, node, REAL_IO, f"socket.{name}(...)")
        elif recv_module == "requests" and name in _REQUESTS_VERBS:
            self._add(scope, node, NETWORK_SEND, f"requests.{name}(...)")
            self._add(scope, node, REAL_IO, f"requests.{name}(...)")
        elif name == "urlopen":
            self._add(scope, node, NETWORK_SEND, f"{recv_text}.urlopen(...)")
            self._add(scope, node, REAL_IO, f"{recv_text}.urlopen(...)")
        elif name in _PATHLIB_IO:
            self._add(scope, node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in _SOCKET_SEND:
            self._add(scope, node, NETWORK_SEND, f"{recv_text}.{name}(...)")
            self._add(scope, node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in ("write", "flush") and root == "sys":
            self._add(scope, node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in _PROJECT_SEND and recv_text not in ("self", "cls"):
            self._add(scope, node, NETWORK_SEND, f"{recv_text}.{name}(...)")
        # in-place container mutation through a trackable receiver
        if name in _MUTATOR_METHODS:
            owner = self._mutation_owner(recv, recv_text, scope, annotations)
            if owner is not None:
                self._add(
                    scope, node, mutates(owner), f"{recv_text}.{name}(...)"
                )

    @staticmethod
    def _is_datetime(root: Optional[str], recv_text: str) -> bool:
        return root == "datetime" or recv_text in ("datetime", "dt", "date")

    # -- mutations -----------------------------------------------------

    def _record_mutation(
        self, site: MutationSite, scope: Scope, annotations: Dict[str, str]
    ) -> None:
        target = site.target
        if site.receiver is None:  # a declared global
            self._add(
                scope, site.stmt, mutates(f"{self.module}:<globals>"),
                f"global {target.id} =",  # type: ignore[attr-defined]
            )
            return
        owner = self._mutation_owner(
            target.value, site.receiver, scope, annotations,  # type: ignore[attr-defined]
            attr=target.attr,  # type: ignore[attr-defined]
        )
        if owner is not None:
            self._add(
                scope, site.stmt, mutates(owner),
                f"{site.receiver}.{target.attr} =",  # type: ignore[attr-defined]
            )

    def _mutation_owner(
        self,
        recv: ast.expr,
        recv_text: str,
        scope: Scope,
        annotations: Dict[str, str],
        attr: Optional[str] = None,
    ) -> Optional[str]:
        """Owner of a mutation through receiver ``recv``.

        Tiers, most precise first: ``self``/``cls`` → the enclosing class;
        an annotated parameter → the annotation's class; a receiver whose
        text contains the token ``state`` with a known metadata attribute
        → ``BootstrapState`` by convention.  Locals are unprovable and
        yield None (a local list is not shared state).
        """
        root = _receiver_root(recv)
        if root is not None and (
            root in ("self", "cls") or root == scope.self_name
        ):
            if scope.method_cls is not None:
                # ``self.state.peers[...] = ...`` is still the bootstrap's
                # metadata, not merely "some attribute of mine".
                if attr in _METADATA_ATTRS and _STATE_TOKEN_RE.search(
                    recv_text
                ):
                    return self._resolve_class_owner("BootstrapState")
                return f"{self.module}:{scope.method_cls}"
            return None
        if root is not None and root in annotations:
            return self._resolve_class_owner(annotations[root])
        if attr in _METADATA_ATTRS and _STATE_TOKEN_RE.search(recv_text):
            return self._resolve_class_owner("BootstrapState")
        return None

    def _resolve_class_owner(self, class_name: str) -> str:
        if class_name in self.local_classes:
            return f"{self.module}:{class_name}"
        origin = self.imports.member_origin(class_name)
        if origin is not None:
            return f"{origin[0]}:{origin[1]}"
        return f":{class_name}"


def compute_intrinsics(graph: ProjectGraph) -> Dict[str, List[IntrinsicSite]]:
    """Phase A over every module: each function's local effect sites."""
    sites: Dict[str, List[IntrinsicSite]] = {}
    for name in sorted(graph.modules):
        sites.update(
            _Intrinsics(
                name, graph.modules[name].walk, graph.imports[name]
            ).sites
        )
    return sites


# ----------------------------------------------------------------------
# Phase B: the SCC fixpoint


@dataclass(frozen=True)
class _PropEdge:
    callee: str
    lineno: int


@dataclass(frozen=True)
class EffectSignature:
    """One function's inferred effects, rule- and report-facing."""

    wallclock: bool = False
    global_random: bool = False
    real_io: bool = False
    network_send: bool = False
    mutates: Tuple[str, ...] = ()

    @property
    def pure(self) -> bool:
        """No observable side effects (raising is control flow: a pure
        evaluator may still raise on malformed input)."""
        return not (
            self.wallclock
            or self.global_random
            or self.real_io
            or self.network_send
            or self.mutates
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "wallclock": self.wallclock,
            "global_random": self.global_random,
            "real_io": self.real_io,
            "network_send": self.network_send,
            "mutates": list(self.mutates),
        }

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "EffectSignature":
        kinds = {"wallclock": False, "global_random": False,
                 "real_io": False, "network_send": False}
        muts: Set[str] = set()
        for atom in atoms:
            if atom[0] in kinds:
                kinds[atom[0]] = True
            elif atom[0] == "mutates":
                muts.add(atom[1])
        return cls(mutates=tuple(sorted(muts)), **kinds)


PURE_SIGNATURE = EffectSignature()

#: Witness hop: (function qualname, line of the call/intrinsic, note).
WitnessHop = Tuple[str, int, str]


class EffectInference:
    """The fixpoint engine, built once per analysis run."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        #: Every function the inference covers, by qualname.
        self.bases: Dict[str, Scope] = graph.functions
        #: qualname -> the effect sites in its own body (Phase A).
        self.intrinsics = compute_intrinsics(graph)
        #: caller -> propagation edges, sorted by (lineno, callee).
        self.calls: Dict[str, List[_PropEdge]] = {}
        self._build_edges()
        self.atoms: Dict[str, FrozenSet[Atom]] = {}
        self._infer()

    @classmethod
    def for_graph(cls, graph: ProjectGraph) -> "EffectInference":
        """The per-run engine, shared by every effect rule via the
        graph's memo (one fold + one fixpoint per analysis run)."""
        if "effect_inference" not in graph.memo:
            graph.memo["effect_inference"] = cls(graph)
        return graph.memo["effect_inference"]

    # -- edges ---------------------------------------------------------

    def _build_edges(self) -> None:
        staged: Dict[str, Set[Tuple[int, str]]] = {}
        for site in self.graph.call_sites:
            reliable = site.precise and not site.via_fallback
            edges = {
                (site.lineno, callee)
                for callee in site.resolved
                if callee in self.bases
                and (reliable or self._receiver_matches(site.receiver, callee))
            }
            edges.update(
                (site.lineno, ref)
                for ref in site.func_ref_args
                if ref in self.bases
            )
            if edges:
                staged.setdefault(site.caller, set()).update(edges)
        for caller in sorted(staged):
            self.calls[caller] = [
                _PropEdge(callee=callee, lineno=lineno)
                for lineno, callee in sorted(staged[caller])
            ]

    def _receiver_matches(
        self, receiver: Optional[str], callee: str
    ) -> bool:
        """Token gate for fallback edges: the rendered receiver must name
        the candidate method's class."""
        info = self.graph.functions.get(callee)
        if info is None or info.cls is None:
            return False
        rtokens = receiver_name_tokens(receiver)
        if not rtokens:
            return False
        return bool(rtokens & class_name_tokens(info.cls))

    # -- fixpoint ------------------------------------------------------

    def _sccs(self) -> List[List[str]]:
        """Tarjan's algorithm, iterative, deterministic; components come
        out callees-first (reverse topological order of the condensation),
        which is exactly the order a bottom-up pass wants."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]
        succ = {
            q: [e.callee for e in self.calls.get(q, ())] for q in self.bases
        }

        for root in sorted(self.bases):
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, child_i = work.pop()
                if child_i == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = succ[node]
                for i in range(child_i, len(children)):
                    child = children[i]
                    if child not in index:
                        work.append((node, i + 1))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if recurse:
                    continue
                if low[node] == index[node]:
                    comp: List[str] = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    sccs.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sccs

    def _infer(self) -> None:
        for comp in self._sccs():
            comp_set = set(comp)
            trivial = len(comp) == 1 and all(
                e.callee not in comp_set for e in self.calls.get(comp[0], ())
            )
            while True:
                changed = False
                for qual in comp:
                    atoms = {s.atom for s in self.intrinsics[qual]}
                    for edge in self.calls.get(qual, ()):
                        atoms.update(self.atoms.get(edge.callee, ()))
                    frozen = frozenset(atoms)
                    if frozen != self.atoms.get(qual):
                        self.atoms[qual] = frozen
                        changed = True
                if trivial or not changed:
                    break

    # -- queries -------------------------------------------------------

    def signature(self, qual: str) -> EffectSignature:
        atoms = self.atoms.get(qual)
        if not atoms:
            return PURE_SIGNATURE
        return EffectSignature.from_atoms(atoms)

    def has_effect(self, qual: str, pred: Callable[[Atom], bool]) -> bool:
        return any(pred(atom) for atom in self.atoms.get(qual, ()))

    def witness(
        self,
        qual: str,
        pred: Callable[[Atom], bool],
        exclude: FrozenSet[str] = frozenset(),
    ) -> Optional[List[WitnessHop]]:
        """A deterministic shortest call chain from ``qual`` to a local
        intrinsic matching ``pred``, or None.

        ``exclude`` names functions the chain may not pass through (used
        by ATOM001 to ask "is there a mutation path *avoiding* the WAL
        reducer?").  Computed after convergence, so iteration order of
        the fixpoint can never change a witness.
        """
        if qual not in self.bases or qual in exclude:
            return None
        parent: Dict[str, Optional[Tuple[str, int]]] = {qual: None}
        frontier = [qual]
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                site = self._first_intrinsic(node, pred)
                if site is not None:
                    return self._build_path(node, parent, site)
                for edge in self.calls.get(node, ()):
                    callee = edge.callee
                    if callee in parent or callee in exclude:
                        continue
                    if not any(
                        pred(a) for a in self.atoms.get(callee, ())
                    ):
                        continue
                    parent[callee] = (node, edge.lineno)
                    next_frontier.append(callee)
            frontier = sorted(set(next_frontier))
        return None

    def _first_intrinsic(
        self, qual: str, pred: Callable[[Atom], bool]
    ) -> Optional[IntrinsicSite]:
        matches = [s for s in self.intrinsics[qual] if pred(s.atom)]
        if not matches:
            return None
        return min(matches, key=lambda s: (s.lineno, s.col, s.text))

    def _build_path(
        self,
        end: str,
        parent: Dict[str, Optional[Tuple[str, int]]],
        site: IntrinsicSite,
    ) -> List[WitnessHop]:
        # Walk parent links from the grounded end back to the root; the
        # int beside each qual is the line *its parent* called it from.
        rev: List[Tuple[str, int]] = []
        cursor: Optional[str] = end
        while cursor is not None:
            link = parent[cursor]
            if link is None:
                rev.append((cursor, -1))
                cursor = None
            else:
                rev.append((cursor, link[1]))
                cursor = link[0]
        rev.reverse()
        hops: List[WitnessHop] = []
        for i, (node_qual, _) in enumerate(rev):
            if i + 1 < len(rev):
                callee_qual, call_line = rev[i + 1]
                hops.append(
                    (
                        node_qual,
                        call_line,
                        f"calls {short_qual(callee_qual)}",
                    )
                )
            else:
                hops.append((node_qual, site.lineno, site.text))
        return hops


def short_qual(qual: str) -> str:
    """``repro.core.metalog:MetadataLog.append`` → ``MetadataLog.append``;
    the module pseudo-function renders as ``module top-level``."""
    module, _, func = qual.partition(":")
    if func == MODULE_SCOPE:
        return f"{module} top-level"
    return func or qual
