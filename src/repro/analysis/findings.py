"""Finding and severity types shared by every rule."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break determinism or cost accounting outright;
    ``WARNING`` findings are hazards that need a human look.  Both fail the
    run — severity is reporting metadata, not a gate — because a warning
    left to rot becomes the stray nondeterminism PR 1's harness can't
    explain.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    # The stripped source line: the finding's identity across line-number
    # drift.
    snippet: str = ""
    suppressed: bool = False
    justification: Optional[str] = None
    #: For dataflow findings: the source-to-sink hop list, each hop a
    #: ``(path, line, note)`` triple with the source first.
    trace: Tuple[Tuple[str, int, str], ...] = ()
    #: Rule-specific structured extras (the effect rules attach the
    #: offending function's inferred signature here); carried verbatim
    #: into the JSON report.
    properties: Dict[str, object] = field(default_factory=dict)

    @property
    def reported(self) -> bool:
        """Whether this finding should fail the run."""
        return not self.suppressed

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
        }
        if self.justification is not None:
            payload["justification"] = self.justification
        if self.trace:
            payload["trace"] = [
                {"path": path, "line": line, "note": note}
                for path, line, note in self.trace
            ]
        if self.properties:
            payload["properties"] = dict(self.properties)
        return payload

    def render(self) -> str:
        suffix = "  [suppressed]" if self.suppressed else ""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity.value}: {self.message}{suffix}"
        )
        for path, line, note in self.trace:
            text += f"\n    flow: {path}:{line}: {note}"
        return text
