"""Determinism rule SIM003: set-iteration order feeding ordered results.

The chaos-equivalence harness asserts that seeded runs replay
row-identical answers.  Wall-clock, real-I/O and global-random effects are
DET003's (:mod:`repro.analysis.effectrules`); this rule covers the one
nondeterminism effect inference cannot see — a ``set``'s hash order.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Set

from repro.analysis.asthelpers import SetTypes
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register_rule


#: Consumers for which iteration order genuinely doesn't matter.
_ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "sum",
    "max",
    "min",
    "any",
    "all",
    "len",
    "set",
    "frozenset",
}

#: Consumers that freeze the arbitrary set order into an ordered value.
_ORDER_FREEZING_CALLS = {"list", "tuple", "iter", "enumerate"}


@register_rule
class SetIterationRule(Rule):
    """SIM003: a ``set``'s iteration order depends on PYTHONHASHSEED, so a
    set iterated into any ordered result (list, loop with ordered effects)
    varies run to run.  Iterate ``sorted(the_set)`` instead; Python dicts
    are insertion-ordered and stay deterministic, so they are exempt."""

    id = "SIM003"
    severity = Severity.ERROR
    description = (
        "nondeterministic set iteration feeding ordered results; wrap in "
        "sorted(...)"
    )
    categories = ("src", "benchmarks")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        class_attrs: Dict[ast.ClassDef, FrozenSet[str]] = {}
        for scope in ctx.walk.scopes.values():
            cls = scope.method_class
            if cls is not None and cls not in class_attrs:
                class_attrs[cls] = SetTypes.class_attrs(cls)
            types = SetTypes(scope, class_attrs.get(cls, frozenset()))
            # Generators handed straight to an order-insensitive consumer.
            unordered = {
                id(arg)
                for node in scope.nodes
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE_CALLS
                for arg in node.args
            }
            for node in scope.nodes:
                yield from self._check_node(ctx, node, types, unordered)

    def _check_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        types: SetTypes,
        unordered: Set[int],
    ) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            if types.is_set(node.iter):
                yield self.finding(
                    ctx,
                    node.iter,
                    "for-loop over a set: iteration order varies run to "
                    "run; iterate sorted(...) or annotate why order cannot "
                    "matter",
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            kind = "list" if isinstance(node, ast.ListComp) else "dict"
            for gen in node.generators:
                if types.is_set(gen.iter):
                    yield self.finding(
                        ctx,
                        gen.iter,
                        f"{kind} comprehension over a set freezes an "
                        "arbitrary order into the result; iterate "
                        "sorted(...)",
                    )
        elif isinstance(node, ast.GeneratorExp) and id(node) not in unordered:
            for gen in node.generators:
                if types.is_set(gen.iter):
                    yield self.finding(
                        ctx,
                        gen.iter,
                        "generator over a set feeds an order-sensitive "
                        "consumer; iterate sorted(...)",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_FREEZING_CALLS
                and node.args
                and types.is_set(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"`{func.id}(...)` freezes a set's arbitrary order; use "
                    "sorted(...)",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and types.is_set(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    "joining a set concatenates in arbitrary order; join "
                    "sorted(...)",
                )
