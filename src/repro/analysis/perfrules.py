"""Performance rule PERF002: per-row work in a module with batch kernels.

Vectorization (:mod:`repro.sqlengine.vectorize`) lowers an expression once
and evaluates whole columns: a module that declares batch kernels has
already paid for whole-column evaluation, so dropping back to a per-row
``evaluate()`` loop in that module forfeits the batch speedup one tuple at
a time.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register_rule

#: Climbing stops here: a call inside a nested function or lambda runs on
#: that function's schedule, not once per iteration of the enclosing loop.
_SCOPE_BOUNDARIES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
)

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _tail_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name or dotted Attribute, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_row_name(name: str) -> bool:
    low = name.lower()
    return low.endswith("row") or low.endswith("record")


def _target_names(target: ast.AST) -> Iterable[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _iterates_rows(iter_node: ast.AST) -> bool:
    """Does any identifier in the iterable expression look like a row set?"""
    for node in ast.walk(iter_node):
        name = _tail_name(node)
        if name is not None:
            low = name.lower()
            if "rows" in low or "records" in low:
                return True
    return False


def _loops_over_rows(target: ast.AST, iter_node: ast.AST) -> bool:
    if any(_is_row_name(name) for name in _target_names(target)):
        return True
    return _iterates_rows(iter_node)


def _enclosing_row_loop(ctx: FileContext, node: ast.AST) -> Optional[ast.AST]:
    """Nearest enclosing rows-loop in the same function scope, if any."""
    current = ctx.parent(node)
    while current is not None and not isinstance(current, _SCOPE_BOUNDARIES):
        if isinstance(current, ast.For) and _loops_over_rows(
            current.target, current.iter
        ):
            return current
        if isinstance(current, _COMPREHENSIONS):
            for comp in current.generators:
                if _loops_over_rows(comp.target, comp.iter):
                    return current
        current = ctx.parent(current)
    return None


def _declares_vector_kernel(tree: ast.AST) -> bool:
    """Does this module define any vector-named function or class?"""
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and "vector" in node.name.lower():
            return True
    return False


@register_rule
class PerRowEvaluatorInVectorModuleRule(Rule):
    """PERF002: per-row ``evaluate()`` loop in a module with batch kernels.

    A module that declares vectorized kernels (any def or class whose name
    mentions ``vector``) has a batch path for expression evaluation.
    Calling an evaluator once per row of a rows-loop in such a module pays
    interpreter dispatch per tuple — exactly the cost the kernels exist to
    amortize — and typically marks a leftover scalar path that should lower
    through :func:`repro.sqlengine.vectorize.compile_vector_evaluator` (or
    delegate to the reference executor, whose module makes the trade-off
    explicit).
    """

    id = "PERF002"
    severity = Severity.WARNING
    description = (
        "per-row evaluator call inside a loop over rows in a module that "
        "declares vectorized kernels; evaluate the whole batch instead"
    )
    categories = ("src", "benchmarks")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _declares_vector_kernel(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _tail_name(node.func)
            if name is None or "evaluat" not in name.lower():
                continue
            loop = _enclosing_row_loop(ctx, node)
            if loop is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() runs once per row of this loop, but this "
                    "module declares vectorized kernels; lower the "
                    "expression once and evaluate the column batch "
                    "(repro.sqlengine.vectorize)",
                )
