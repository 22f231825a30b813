"""Effect-contract rules: PURE001, DET003, ATOM001.

These ride on the tier-4 inference in :mod:`repro.analysis.effects`.
Each rule names a contract *boundary* (compiled kernels, event handlers,
the bootstrap's WAL) and checks every function inside it against the
inferred effect signature; every finding carries the call-chain witness
from the boundary to the offending intrinsic, plus the full signature in
``Finding.properties`` for the JSON/SARIF reports.

A chain ``kernel → helper → time.monotonic()`` is reported once, at the
deepest in-violation function — fixing the helper fixes every caller, and
one finding per root per helper would bury the cause in repetition.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.effects import (
    Atom,
    EffectInference,
    WitnessHop,
    owner_class,
    owner_module,
    receiver_name_tokens,
    render_atom,
    short_qual,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.registry import ProjectRule, register_rule

#: Module basename of the WAL reducer (``repro.core.metalog`` in the
#: tree, ``proj.core.metalog`` in fixtures).  Must agree with RES002's
#: ``WAL_MODULE`` on what the sanctioned mutation path is.
WAL_BASENAME = "metalog"


def _is_wal_module(module: str) -> bool:
    return module.split(".")[-1] == WAL_BASENAME


class _EffectContractRule(ProjectRule):
    """Shared driver: pick roots, test a predicate, witness, dedup."""

    #: Atom predicate — what this contract forbids.
    def offending(self, atom: Atom) -> bool:
        raise NotImplementedError

    def roots(
        self, graph: ProjectGraph, inference: EffectInference
    ) -> List[str]:
        raise NotImplementedError

    def message(self, qual: str, effects: List[str], cause: str) -> str:
        raise NotImplementedError

    def witness_for(
        self, inference: EffectInference, qual: str
    ) -> Optional[List[WitnessHop]]:
        return inference.witness(qual, self.offending)

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        inference = EffectInference.for_graph(graph)
        flagged = {
            qual
            for qual in self.roots(graph, inference)
            if inference.has_effect(qual, self.offending)
        }
        for qual in sorted(flagged):
            # Report the deepest in-violation function of each chain.
            if any(
                edge.callee in flagged and edge.callee != qual
                for edge in inference.calls.get(qual, ())
            ):
                continue
            hops = self.witness_for(inference, qual)
            if hops is None:
                continue
            finding = self._emit(graph, inference, qual, hops)
            if finding is not None:
                yield finding

    def _emit(
        self,
        graph: ProjectGraph,
        inference: EffectInference,
        qual: str,
        hops: List[WitnessHop],
    ) -> Optional[Finding]:
        module = graph.module_of_function(qual)
        if module is None:
            return None
        signature = inference.signature(qual)
        effects = sorted(
            {
                render_atom(atom)
                for atom in inference.atoms.get(qual, ())
                if self.offending(atom)
            }
        )
        cause = hops[-1][2]
        finding = self.project_finding(
            module,
            hops[0][1],
            0,
            self.message(qual, effects, cause),
        )
        finding.trace = self._trace(graph, hops)
        finding.properties = {
            "effectSignature": signature.to_dict(),
            "offendingEffects": effects,
        }
        return finding

    def _trace(
        self, graph: ProjectGraph, hops: List[WitnessHop]
    ) -> Tuple[Tuple[str, int, str], ...]:
        rendered = []
        for i, (qual, lineno, note) in enumerate(hops):
            module = graph.module_of_function(qual)
            path = module.path if module is not None else "<unknown>"
            if i + 1 < len(hops):
                text = f"{short_qual(qual)} {note}"
            else:
                text = f"{short_qual(qual)}: {note}"
            rendered.append((path, lineno, text))
        return tuple(rendered)


def _module_has_part(module: str, *parts: str) -> bool:
    pieces = module.split(".")
    return any(part in pieces for part in parts)


@register_rule
class Pure001(_EffectContractRule):
    """Compiled-kernel code must be pure."""

    id = "PURE001"
    severity = Severity.ERROR
    description = (
        "code reachable from compiled evaluators / executor kernels "
        "must be pure (no clock, randomness, I/O, network, or shared "
        "mutation)"
    )
    categories = ("src",)
    example_path = "proj/sqlengine/vectorize.py"
    rationale = (
        "The query path lowers expression trees into vector kernels\n"
        "once, precisely so the executor can run them millions of times\n"
        "without re-deciding anything.  That bargain only holds if a\n"
        "kernel is a pure function of its rows: a clock read makes two\n"
        "identical queries disagree, a network send hides unpriced\n"
        "traffic from the cost model, and mutation of state owned\n"
        "outside the engine turns a scan into a side channel.  The\n"
        "vectorized executor leans on this harder still: batch kernels\n"
        "evaluate rows past the one whose error the reference path would\n"
        "raise first, and defer errors to operator boundaries — which is\n"
        "only unobservable because kernels are pure."
    )
    example_violation = (
        "import time\n"
        "\n"
        "def _lower_filter(positions):\n"
        "    def run_filter(rows):\n"
        "        started = time.perf_counter()  # wallclock inside a kernel\n"
        "        kept = [row for row in rows if row[positions[0]] is not None]\n"
        "        return kept, started\n"
        "    return run_filter\n"
    )
    example_clean = (
        "def _lower_filter(positions):\n"
        "    def run_filter(rows):\n"
        "        return [row for row in rows if row[positions[0]] is not None]\n"
        "    return run_filter\n"
    )

    def roots(
        self, graph: ProjectGraph, inference: EffectInference
    ) -> List[str]:
        selected = []
        for qual in sorted(inference.bases):
            module = inference.bases[qual].module
            if (
                module.endswith("sqlengine.executor")
                or module.endswith("sqlengine.vectorize")
                or module.endswith("sqlengine.vexecutor")
            ):
                selected.append(qual)
        return selected

    def offending(self, atom: Atom) -> bool:
        if atom[0] in (
            "wallclock", "global_random", "network_send", "real_io"
        ):
            return True
        if atom[0] == "mutates":
            # Mutating engine-owned state (ExecStats, plan caches) is the
            # executor's business; anything else is a side channel.
            if owner_class(atom[1]) == "<globals>":
                return True
            return "sqlengine" not in owner_module(atom[1]).split(".")
        return False

    def message(self, qual: str, effects: List[str], cause: str) -> str:
        return (
            f"compiled-kernel function {short_qual(qual)!r} has effects "
            f"{{{', '.join(effects)}}} ({cause}) — kernels must be pure "
            f"functions of their rows"
        )


#: Receiver tokens that mark a ``pop``/``pop_until`` caller as an event
#: dispatcher even outside ``repro.sim`` (the serving front door drains
#: its completion queue the same way).
_EVENT_RECEIVER_TOKENS = frozenset(
    {"queue", "event", "events", "eventqueue", "completions", "timeline"}
)
_SCHEDULE_CALLEES = ("push", "schedule")
_DRAIN_CALLEES = ("pop", "pop_until")


@register_rule
class Det003(_EffectContractRule):
    """Event-handler code must stay on the simulated clock."""

    id = "DET003"
    severity = Severity.ERROR
    description = (
        "code reachable from EventQueue handlers and repro.sim callbacks "
        "must be free of wall-clock, real-I/O, and global-random effects"
    )
    categories = ("src",)
    example_path = "proj/sim/handlers.py"
    rationale = (
        "Every experiment in this tree replays on a simulated clock:\n"
        "an event handler that sleeps, reads the real time, hits the\n"
        "filesystem, or draws from the global RNG produces runs that\n"
        "cannot be replayed bit-for-bit, which is exactly the failure\n"
        "the chaos harness exists to rule out.  SIM002/SIM005 catch\n"
        "wall-clock *values* flowing into timestamps; this rule catches\n"
        "the effects themselves, anywhere in the call closure of a\n"
        "handler — including helpers three calls away.  Simulated\n"
        "network sends are fine (that is what the sim is for); real\n"
        "waiting is not."
    )
    example_violation = (
        "import time\n"
        "\n"
        "def on_transfer_done(now):\n"
        "    time.sleep(0.01)  # real waiting inside a simulated event\n"
        "    return now + 1.0\n"
    )
    example_clean = (
        "def on_transfer_done(now, queue):\n"
        "    # reschedule on the simulated timeline instead of waiting\n"
        "    queue.push(now + 1.0, retry)\n"
        "\n"
        "def retry(now):\n"
        "    return now\n"
    )

    def roots(
        self, graph: ProjectGraph, inference: EffectInference
    ) -> List[str]:
        selected = set()
        for qual in inference.bases:
            if _module_has_part(inference.bases[qual].module, "sim"):
                selected.add(qual)
        for site in graph.call_sites:
            if site.callee_name in _SCHEDULE_CALLEES and site.func_ref_args:
                # a callback handed to push()/schedule() is a handler
                selected.update(
                    ref for ref in site.func_ref_args if ref in inference.bases
                )
            elif site.callee_name in _DRAIN_CALLEES and (
                receiver_name_tokens(site.receiver) & _EVENT_RECEIVER_TOKENS
            ):
                # whoever drains an event queue runs handler code inline
                if site.caller in inference.bases:
                    selected.add(site.caller)
        return sorted(selected)

    def offending(self, atom: Atom) -> bool:
        return atom[0] in ("wallclock", "real_io", "global_random")

    def message(self, qual: str, effects: List[str], cause: str) -> str:
        return (
            f"event-handler-reachable function {short_qual(qual)!r} has "
            f"effects {{{', '.join(effects)}}} ({cause}) — handlers run "
            f"on the simulated clock and must not touch the real world"
        )


@register_rule
class Atom001(_EffectContractRule):
    """Metadata mutation + network send must route through the WAL."""

    id = "ATOM001"
    severity = Severity.ERROR
    description = (
        "a function that both mutates bootstrap metadata and sends on "
        "the network must route the mutation through the metalog WAL "
        "reducer"
    )
    categories = ("src",)
    example_path = "proj/core/bootstrap.py"
    rationale = (
        "The bootstrap survives fail-over because every metadata change\n"
        "is a typed WAL record: append, replicate, then let the single\n"
        "metalog reducer fold it into state.  RES002 pins *where* state\n"
        "may be written; this rule pins the dangerous *combination* — a\n"
        "function that mutates metadata AND talks on the wire is doing\n"
        "replication by hand, and a crash between its two halves leaves\n"
        "the leader and standby permanently disagreeing.  A refactor\n"
        "that splits the pair across helpers still owns both effects in\n"
        "its inferred signature, which is what makes this check survive\n"
        "restructuring that line-based review would miss."
    )
    example_violation = (
        "class BootstrapState:\n"
        "    def __init__(self):\n"
        "        self.peers = {}\n"
        "\n"
        "class Bootstrap:\n"
        "    def __init__(self, network):\n"
        "        self.state = BootstrapState()\n"
        "        self.network = network\n"
        "\n"
        "    def admit(self, peer_id, info):\n"
        "        # mutates metadata in place AND replicates by hand\n"
        "        self.state.peers[peer_id] = info\n"
        "        self.network.transfer(0, 1, ('admit', peer_id, info))\n"
    )
    example_clean = (
        "class MetadataLog:\n"
        "    def __init__(self):\n"
        "        self.entries = []\n"
        "\n"
        "    def append(self, entry):\n"
        "        self.entries.append(entry)  # the WAL owns the mutation\n"
        "\n"
        "class Bootstrap:\n"
        "    def __init__(self, network):\n"
        "        self.log = MetadataLog()\n"
        "        self.network = network\n"
        "\n"
        "    def admit(self, peer_id, info):\n"
        "        entry = ('admit', peer_id, info)\n"
        "        self.log.append(entry)\n"
        "        self.network.transfer(0, 1, entry)\n"
    )

    def roots(
        self, graph: ProjectGraph, inference: EffectInference
    ) -> List[str]:
        selected = []
        for qual in sorted(inference.bases):
            if _is_wal_module(inference.bases[qual].module):
                continue  # reducer internals are the sanctioned path
            atoms = inference.atoms.get(qual, ())
            if any(a[0] == "network_send" for a in atoms) and any(
                self._metadata_mutation(a) for a in atoms
            ):
                selected.append(qual)
        return selected

    @staticmethod
    def _metadata_mutation(atom: Atom) -> bool:
        return atom[0] == "mutates" and owner_class(atom[1]) == (
            "BootstrapState"
        )

    def offending(self, atom: Atom) -> bool:
        return self._metadata_mutation(atom)

    def witness_for(
        self, inference: EffectInference, qual: str
    ) -> Optional[List[WitnessHop]]:
        # The decisive question is not "does it mutate" but "can the
        # mutation be reached *without* passing through the reducer".
        # No such chain → the function only mutates via apply() → clean.
        exclude: FrozenSet[str] = frozenset(
            q
            for q in inference.bases
            if _is_wal_module(inference.bases[q].module)
        )
        return inference.witness(qual, self.offending, exclude=exclude)

    def message(self, qual: str, effects: List[str], cause: str) -> str:
        return (
            f"{short_qual(qual)!r} both mutates bootstrap metadata "
            f"({cause}) and sends on the network, without routing the "
            f"mutation through the metalog WAL reducer — append a typed "
            f"record and let apply() fold it in"
        )
