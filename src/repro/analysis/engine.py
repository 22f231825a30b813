"""The analysis driver: file discovery, parsing, rule dispatch, filtering.

Each file is parsed exactly once per run.  The resulting
:class:`FileContext` list feeds the per-file rules directly and is then
handed, whole, to :class:`~repro.analysis.projectgraph.ProjectGraph` for
the interprocedural rules — so adding a project rule costs no extra parse.
An optional :class:`~repro.analysis.astcache.AstCache` shares parse trees
across *processes* (CI runs the lint pass and the graph export back to
back on the same tree).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.astcache import AstCache
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


def _split_rules(
    rules: Sequence[Rule],
) -> Tuple[List[Rule], List[ProjectRule]]:
    file_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    return file_rules, project_rules


def _apply_suppression(
    finding: Finding, suppressions: Optional[SuppressionIndex]
) -> None:
    if suppressions is not None and suppressions.allows(
        finding.line, finding.rule
    ):
        finding.suppressed = True
        finding.justification = suppressions.reason(finding.line, finding.rule)


def _run_file_rules(
    ctx: FileContext,
    rules: Sequence[Rule],
    suppressions: SuppressionIndex,
) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        if ctx.category not in rule.categories:
            continue
        for finding in rule.check(ctx):
            _apply_suppression(finding, suppressions)
            findings.append(finding)
    return findings


def _run_project_rules(
    contexts: Sequence[FileContext],
    rules: Sequence[ProjectRule],
    suppressions: Dict[str, SuppressionIndex],
    ast_cache: Optional[AstCache] = None,
) -> List[Finding]:
    """Build one graph from every parsed file and run the project rules.

    The graph always covers everything scanned; a rule's ``categories``
    only filter which files' findings are *emitted*.  The AST cache rides
    along on the graph so derived artifacts (the per-function dataflow
    summaries) persist beside the parse trees.
    """
    if not rules or not contexts:
        return []
    graph = ProjectGraph.build(contexts)
    graph.ast_cache = ast_cache
    categories = {ctx.path: ctx.category for ctx in contexts}
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check_project(graph):
            if categories.get(finding.path) not in rule.categories:
                continue
            _apply_suppression(finding, suppressions.get(finding.path))
            findings.append(finding)
    return findings


def analyze_source(
    source: str,
    path: str = "<string>",
    category: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze one source text.  The unit the fixture tests drive.

    Project rules work here too — they see a one-file program.  For
    multi-file fixtures use :func:`analyze_project`.
    """
    return analyze_project(
        {path: source}, rules=rules, category_override=category
    )


def analyze_project(
    files: Dict[str, str],
    rules: Optional[Sequence[Rule]] = None,
    category_override: Optional[str] = None,
) -> List[Finding]:
    """Analyze a {path: source} mapping as one program, in memory.

    This is the multi-file fixture API: interprocedural rules see call
    paths that cross the given files, exactly as in a directory scan.
    """
    selected = list(rules) if rules is not None else all_rules()
    file_rules, project_rules = _split_rules(selected)
    contexts: List[FileContext] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    findings: List[Finding] = []
    for path in sorted(files):
        source = files[path]
        normalized = path.replace(os.sep, "/")
        category = category_override or categorize(normalized)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(_parse_finding(normalized, exc))
            continue
        ctx = FileContext(
            path=normalized, category=category, source=source, tree=tree
        )
        contexts.append(ctx)
        suppressions[normalized] = SuppressionIndex(source)
        findings.extend(_run_file_rules(ctx, file_rules, suppressions[normalized]))
    findings.extend(_run_project_rules(contexts, project_rules, suppressions))
    findings.sort(key=Finding.sort_key)
    return findings


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

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        ast_cache: Optional[AstCache] = None,
    ) -> None:
        self.rules = list(rules) if rules is not None else all_rules()
        self.ast_cache = ast_cache

    def _parse(self, source: str, filepath: str) -> ast.Module:
        if self.ast_cache is not None:
            return self.ast_cache.parse(source, filename=filepath)
        return ast.parse(source, filename=filepath)

    def run(self, paths: Sequence[str]) -> AnalysisReport:
        report = AnalysisReport()
        file_rules, project_rules = _split_rules(self.rules)
        contexts: List[FileContext] = []
        suppressions: Dict[str, SuppressionIndex] = {}
        for filepath in iter_python_files(paths):
            try:
                with open(filepath, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise AnalysisError(f"cannot read {filepath!r}: {exc}") from exc
            report.files_scanned += 1
            relpath = os.path.relpath(filepath).replace(os.sep, "/")
            try:
                tree = self._parse(source, filepath)
            except SyntaxError as exc:
                report.findings.append(_parse_finding(relpath, exc))
                continue
            ctx = FileContext(
                path=relpath,
                category=categorize(relpath),
                source=source,
                tree=tree,
            )
            contexts.append(ctx)
            suppressions[relpath] = SuppressionIndex(source)
            report.findings.extend(
                _run_file_rules(ctx, file_rules, suppressions[relpath])
            )
        report.findings.extend(
            _run_project_rules(
                contexts, project_rules, suppressions, self.ast_cache
            )
        )
        report.findings.sort(key=Finding.sort_key)
        return report

    def build_graph(self, paths: Sequence[str]) -> ProjectGraph:
        """Parse ``paths`` (through the cache, when set) into a graph only —
        the ``graph`` subcommand's entry point."""
        contexts: List[FileContext] = []
        for filepath in iter_python_files(paths):
            try:
                with open(filepath, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise AnalysisError(f"cannot read {filepath!r}: {exc}") from exc
            relpath = os.path.relpath(filepath).replace(os.sep, "/")
            try:
                tree = self._parse(source, filepath)
            except SyntaxError as exc:
                raise AnalysisError(
                    f"cannot parse {relpath}: {exc.msg} (line {exc.lineno})"
                ) from exc
            contexts.append(
                FileContext(
                    path=relpath,
                    category=categorize(relpath),
                    source=source,
                    tree=tree,
                )
            )
        return ProjectGraph.build(contexts)


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    ast_cache: Optional[AstCache] = None,
) -> AnalysisReport:
    """One-call API: analyze ``paths`` and return the report."""
    return Analyzer(rules=rules, ast_cache=ast_cache).run(paths)
