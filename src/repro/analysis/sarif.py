"""SARIF 2.1.0 export of an :class:`~repro.analysis.engine.AnalysisReport`.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest; emitting it makes the linter's findings — including the
dataflow rules' source-to-sink traces, which map onto SARIF ``codeFlows``
— reviewable inline on a pull request instead of in a CI log.

One run object per report: ``tool.driver.rules`` carries every registered
rule (id, severity, short and full description), each reported finding
becomes a ``result``, and suppressed findings are included with
a ``suppressions`` entry so the artifact is a complete audit of the run,
matching ``--json --verbose``.
"""

from __future__ import annotations

import json
from typing import Dict, Sequence

from repro.analysis.engine import AnalysisReport
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro.analysis"

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _location(path: str, line: int, col: int) -> Dict[str, object]:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path, "uriBaseId": "SRCROOT"},
            "region": {"startLine": max(line, 1), "startColumn": col + 1},
        }
    }


def _rule_descriptor(rule: Rule) -> Dict[str, object]:
    descriptor: Dict[str, object] = {
        "id": rule.id,
        "name": rule.__class__.__name__,
        "shortDescription": {"text": rule.description},
        "defaultConfiguration": {"level": _LEVELS[rule.severity]},
        "properties": {"family": rule.family},
    }
    if rule.rationale:
        descriptor["fullDescription"] = {"text": rule.rationale}
    return descriptor


def _code_flow(finding: Finding) -> Dict[str, object]:
    """The source-to-sink hop list as one SARIF thread flow."""
    steps = [
        {
            "location": {
                **_location(path, line, 0),
                "message": {"text": note},
            }
        }
        for path, line, note in finding.trace
    ]
    return {"threadFlows": [{"locations": steps}]}


def _result(finding: Finding, rule_index: Dict[str, int]) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [_location(finding.path, finding.line, finding.col)],
    }
    if finding.rule in rule_index:
        result["ruleIndex"] = rule_index[finding.rule]
    if finding.snippet:
        result["partialFingerprints"] = {
            # (rule, path, stripped line): results stay matched across
            # unrelated line-number drift.
            "reproAnalysis/v1": f"{finding.rule}:{finding.path}:{finding.snippet}"
        }
    if finding.trace:
        result["codeFlows"] = [_code_flow(finding)]
    if finding.properties:
        # The effect rules attach the offending function's inferred
        # signature here; code-scanning UIs render it beside the message.
        result["properties"] = dict(finding.properties)
    if finding.suppressed:
        result["suppressions"] = [
            {
                "kind": "inSource",
                "justification": finding.justification or "",
            }
        ]
    return result


def to_sarif(report: AnalysisReport, rules: Sequence[Rule]) -> str:
    """Render ``report`` as a SARIF 2.1.0 JSON string."""
    ordered = sorted(rules, key=lambda rule: rule.id)
    rule_index = {rule.id: i for i, rule in enumerate(ordered)}
    run: Dict[str, object] = {
        "tool": {
            "driver": {
                "name": TOOL_NAME,
                "informationUri": "https://example.invalid/repro-analysis",
                "rules": [_rule_descriptor(rule) for rule in ordered],
            }
        },
        "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
        "results": [
            _result(finding, rule_index) for finding in report.findings
        ],
        "properties": {
            "filesScanned": report.files_scanned,
            "reported": len(report.reported),
            "suppressed": len(report.suppressed),
        },
    }
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    return json.dumps(payload, indent=2)
