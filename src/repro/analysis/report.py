"""Render an :class:`~repro.analysis.engine.AnalysisReport` for humans or CI."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.engine import AnalysisReport


def to_json(report: AnalysisReport, include_clean: bool = False) -> str:
    """Machine-readable output for the CI gate.

    ``findings`` holds only findings that fail the run; the suppressed
    ones appear (with their justifications) under ``accepted`` when
    ``include_clean`` is set, so a reviewer can audit every exception from
    one artifact.
    """
    payload: Dict[str, object] = {
        "version": 1,
        "files_scanned": report.files_scanned,
        "counts": {
            "total": len(report.findings),
            "reported": len(report.reported),
            "suppressed": len(report.suppressed),
        },
        "ok": report.ok,
        "findings": [finding.to_dict() for finding in report.reported],
    }
    if include_clean:
        payload["accepted"] = [
            finding.to_dict()
            for finding in report.findings
            if not finding.reported
        ]
    return json.dumps(payload, indent=2)


def to_text(report: AnalysisReport, verbose: bool = False) -> str:
    """Human-readable file:line:col listing plus a one-line summary."""
    lines: List[str] = []
    for finding in report.reported:
        lines.append(finding.render())
    if verbose:
        for finding in report.findings:
            if finding.reported:
                continue
            reason = f" ({finding.justification})" if finding.justification else ""
            lines.append(f"{finding.render()}{reason}")
    summary = (
        f"{report.files_scanned} files scanned: "
        f"{len(report.reported)} finding(s), "
        f"{len(report.suppressed)} suppressed"
    )
    if lines:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines)
