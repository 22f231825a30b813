"""Rule protocol and registry.

A rule is a named check over one parsed module.  Rules register themselves
at import time via :func:`register_rule`; the engine runs every registered
rule whose ``categories`` admit the file being scanned, so future PRs add a
rule by dropping in a module with one decorated class — no engine changes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Type

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # circular at runtime: projectgraph uses FileContext
    from repro.analysis.projectgraph import ModuleNode, ProjectGraph

#: File categories the engine distinguishes.  Library code carries both
#: invariants; tests and benchmarks only the determinism-critical subset.
CATEGORIES = ("src", "tests", "benchmarks")


class AnalysisError(Exception):
    """A misconfigured rule or an unusable input to the analyzer.

    Deliberately NOT part of the ``repro.errors`` hierarchy: the analysis
    package checks the rest of the tree from outside and must stay
    stdlib-only (its own ARCH001 contract), so it cannot share the
    platform's exception taxonomy.
    """


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str  # posix-style, relative to the scan root
    category: str  # one of CATEGORIES
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    _parents: Optional[Dict[int, ast.AST]] = None

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module)."""
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[id(child)] = outer
            self._parents = parents
        return self._parents.get(id(node))


class Rule:
    """Base class for all checks.

    Subclasses set ``id``, ``severity``, ``description`` and the file
    ``categories`` they apply to, then implement :meth:`check` yielding
    ``(node_or_lineno, message)`` pairs via :meth:`finding`.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    #: Which file categories the rule runs on.
    categories: Iterable[str] = CATEGORIES
    #: ``--explain`` metadata.  ``rationale`` says *why* the invariant is
    #: load-bearing; the examples are minimal self-contained sources, the
    #: first of which must trip the rule and the second must not (the
    #: explain command runs both through the analyzer to prove it).
    rationale: str = ""
    example_violation: str = ""
    example_clean: str = ""
    #: Path the worked examples are analyzed under.  Rules whose domain is
    #: module-name-based (the effect contracts) need the example to live
    #: at a path that puts it inside the contract boundary.
    example_path: str = "<string>"

    @property
    def family(self) -> str:
        """Rule family from the id prefix (``SEC003`` → ``SEC``)."""
        return self.id.rstrip("0123456789") or self.id

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.path,
            line=lineno,
            col=col,
            message=message,
            snippet=ctx.line_text(lineno),
        )


class ProjectRule(Rule):
    """A rule that needs the whole-program :class:`ProjectGraph`.

    Project rules see every file at once: the engine builds one graph per
    run from the already-parsed contexts and calls :meth:`check_project`
    after the per-file rules.  ``categories`` still applies — it filters
    which files' findings are *emitted*, while the graph itself is always
    built from everything scanned (so e.g. reachability through helper
    modules is never truncated).  Inline suppressions apply to
    project findings exactly as to per-file ones.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, graph: "ProjectGraph") -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(
        self,
        module: "ModuleNode",
        lineno: int,
        col: int,
        message: str,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=module.path,
            line=lineno,
            col=col,
            message=message,
            snippet=module.line_text(lineno),
        )


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    if not cls.id:
        raise AnalysisError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id: {cls.id}")
    unknown = set(cls.categories) - set(CATEGORIES)
    if unknown:
        raise AnalysisError(
            f"rule {cls.id} names unknown categories: {sorted(unknown)}"
        )
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in stable id order."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one registered rule by id."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise AnalysisError(f"unknown rule: {rule_id!r}") from None
