"""The analysis driver: file discovery, parsing, rule dispatch, filtering.

One loop parses each file exactly once and runs the per-file rules on it;
the resulting :class:`FileContext` list is then handed, whole, to
:class:`~repro.analysis.projectgraph.ProjectGraph` for the
interprocedural rules — so adding a project rule costs no extra parse.
A directory scan and an in-memory fixture go through that same loop.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.registry import (
    AnalysisError,
    FileContext,
    ProjectRule,
    Rule,
    all_rules,
)
from repro.analysis.suppress import SuppressionIndex

#: Pseudo-rule id for files the parser rejects.  Not registered: it cannot
#: be suppressed — unparseable code can't be analyzed at all.
PARSE_RULE_ID = "PARSE000"

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".hg", ".tox", ".venv", "node_modules"}


def categorize(path: str) -> str:
    """Which invariant profile a file gets, from its path alone."""
    parts = path.replace(os.sep, "/").split("/")
    if "tests" in parts:
        return "tests"
    if "benchmarks" in parts:
        return "benchmarks"
    return "src"


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        if not os.path.isdir(path):
            raise AnalysisError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if name not in _SKIP_DIR_NAMES
                and not name.endswith(".egg-info")
                and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _parse_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule=PARSE_RULE_ID,
        severity=Severity.ERROR,
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"cannot parse file: {exc.msg}",
    )


def _apply_suppression(
    finding: Finding, suppressions: Optional[SuppressionIndex]
) -> None:
    if suppressions is not None and suppressions.allows(
        finding.line, finding.rule
    ):
        finding.suppressed = True
        finding.justification = suppressions.reason(finding.line, finding.rule)


def _suppressions(path: str, source: str, known: Sequence[str]) -> SuppressionIndex:
    """The file's ``allow[...]`` comments; an id no rule has is an error,
    not a silent no-op (it would suppress nothing, forever)."""
    index = SuppressionIndex(source)
    for lineno, rule_id in index.mentions:
        if rule_id not in known:
            raise AnalysisError(
                f"{path}:{lineno}: allow[{rule_id}] names an unknown rule id "
                f"(valid ids: {', '.join(sorted(known))})"
            )
    return index


def analyze_project(
    files: Dict[str, str],
    rules: Optional[Sequence[Rule]] = None,
    category_override: Optional[str] = None,
) -> List[Finding]:
    """Analyze a {path: source} mapping as one program.

    Interprocedural rules see call paths that cross the given files; the
    graph always covers everything given, while a rule's ``categories``
    only filter which files' findings are *emitted*.
    """
    selected = list(rules) if rules is not None else all_rules()
    known = sorted({rule.id for rule in all_rules() + selected})
    contexts: List[FileContext] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    findings: List[Finding] = []
    for path in sorted(files):
        source = files[path]
        path = path.replace(os.sep, "/")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(_parse_finding(path, exc))
            continue
        suppressions[path] = _suppressions(path, source, known)
        ctx = FileContext(
            path=path,
            category=category_override or categorize(path),
            source=source,
            tree=tree,
        )
        contexts.append(ctx)
        for rule in selected:
            if isinstance(rule, ProjectRule) or ctx.category not in rule.categories:
                continue
            for finding in rule.check(ctx):
                _apply_suppression(finding, suppressions[path])
                findings.append(finding)
    project_rules = [rule for rule in selected if isinstance(rule, ProjectRule)]
    if project_rules and contexts:
        graph = ProjectGraph.build(contexts)
        categories = {ctx.path: ctx.category for ctx in contexts}
        for rule in project_rules:
            for finding in rule.check_project(graph):
                if categories.get(finding.path) not in rule.categories:
                    continue
                _apply_suppression(finding, suppressions.get(finding.path))
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def analyze_source(
    source: str,
    path: str = "<string>",
    category: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze one source text: a one-file program."""
    return analyze_project({path: source}, rules=rules, category_override=category)


@dataclass
class AnalysisReport:
    """Everything one run produced, ready for rendering."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def reported(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.reported]

    @property
    def suppressed(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def ok(self) -> bool:
        return not self.reported


class Analyzer:
    """Run a rule set over paths, applying inline suppressions."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules = list(rules) if rules is not None else all_rules()

    def run(self, paths: Sequence[str]) -> AnalysisReport:
        files: Dict[str, str] = {}
        for filepath in iter_python_files(paths):
            try:
                with open(filepath, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise AnalysisError(f"cannot read {filepath!r}: {exc}") from exc
            files[os.path.relpath(filepath)] = source
        return AnalysisReport(
            findings=analyze_project(files, rules=self.rules),
            files_scanned=len(files),
        )


def analyze_paths(
    paths: Sequence[str], rules: Optional[Sequence[Rule]] = None
) -> AnalysisReport:
    """One-call API: analyze ``paths`` and return the report."""
    return Analyzer(rules=rules).run(paths)
