"""Effect-contract rules: PURE001, DET003, ATOM001.

These ride on the interprocedural inference in
:mod:`repro.analysis.effects`.  Each rule names a contract *boundary*
(compiled kernels, the replayed library, the bootstrap's WAL) and checks
every function inside it against the inferred effect signature; every
finding carries the call-chain witness from the boundary to the offending
intrinsic, plus the full signature in ``Finding.properties`` for the JSON
report.

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
    render_atom,
    short_qual,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.registry import ProjectRule, register_rule

#: Module basename of the WAL reducer (``repro.core.metalog`` in the
#: tree, ``proj.core.metalog`` in fixtures).
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

    def excluded(self, inference: EffectInference) -> FrozenSet[str]:
        """Functions a witness chain may not pass through."""
        return frozenset()

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        inference = EffectInference.for_graph(graph)
        exclude = self.excluded(inference)
        witnesses = {}
        for qual in self.roots(graph, inference):
            if inference.has_effect(qual, self.offending):
                hops = inference.witness(qual, self.offending, exclude=exclude)
                if hops is not None:
                    witnesses[qual] = hops
        for qual in sorted(witnesses):
            # Report the deepest in-violation function of each chain.
            if any(
                edge.callee in witnesses and edge.callee != qual
                for edge in inference.calls.get(qual, ())
            ):
                continue
            finding = self._emit(graph, inference, qual, witnesses[qual])
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


@register_rule
class Det003(_EffectContractRule):
    """Library code stays on the simulated clock and the seeded RNGs."""

    id = "DET003"
    severity = Severity.ERROR
    description = (
        "library code (every src module outside bench, console and "
        "analysis) must be free of wall-clock, real-I/O and global-random "
        "effects"
    )
    categories = ("src",)

    def roots(
        self, graph: ProjectGraph, inference: EffectInference
    ) -> List[str]:
        # bench measures wall time, console talks to a human, analysis
        # lints files: real I/O is their job.  Everything else replays.
        return sorted(
            qual
            for qual, base in inference.bases.items()
            if graph.modules[base.module].category == "src"
            and not _module_has_part(
                base.module, "bench", "console", "analysis"
            )
        )

    def offending(self, atom: Atom) -> bool:
        return atom[0] in ("wallclock", "real_io", "global_random")

    def message(self, qual: str, effects: List[str], cause: str) -> str:
        return (
            f"{short_qual(qual)!r} has effects {{{', '.join(effects)}}} "
            f"({cause}) — simulated runs replay on the sim clock and seeded "
            f"RNGs and must not touch the real world"
        )


@register_rule
class Atom001(_EffectContractRule):
    """Bootstrap metadata is mutated only through the WAL reducer."""

    id = "ATOM001"
    severity = Severity.ERROR
    description = (
        "bootstrap metadata (BootstrapState) mutated on a path that "
        "bypasses the metalog WAL reducer — standby replay would diverge"
    )
    categories = ("src",)

    def roots(
        self, graph: ProjectGraph, inference: EffectInference
    ) -> List[str]:
        return sorted(inference.bases)

    @staticmethod
    def _metadata_mutation(atom: Atom) -> bool:
        return atom[0] == "mutates" and owner_class(atom[1]) == (
            "BootstrapState"
        )

    def offending(self, atom: Atom) -> bool:
        return self._metadata_mutation(atom)

    def excluded(self, inference: EffectInference) -> FrozenSet[str]:
        # The decisive question is not "does it mutate" but "can the
        # mutation be reached *without* passing through the reducer".
        # No such chain → the function only mutates via apply() → clean.
        # A state's own constructor builds a fresh value, mutating nothing
        # a standby replays.
        return frozenset(
            q
            for q, base in inference.bases.items()
            if _is_wal_module(base.module)
            or (base.cls == "BootstrapState" and base.name == "__init__")
        )

    def message(self, qual: str, effects: List[str], cause: str) -> str:
        return (
            f"{short_qual(qual)!r} mutates bootstrap metadata ({cause}) "
            f"without routing the mutation through the metalog WAL "
            f"reducer — append a typed record and let apply() fold it in"
        )
