"""``# repro: allow[RULE]`` suppression comments.

Grammar (inside any comment)::

    # repro: allow[SIM003]                       one rule
    # repro: allow[ISO002,RES004]                several rules
    # repro: allow[SIM003] singleton set         trailing free-form reason

An inline comment suppresses findings on its own physical line; a comment
that stands alone on a line suppresses the next non-comment, non-blank
line (so multi-line statements can be annotated above).  Comments are found
with :mod:`tokenize`, so the pattern inside a string literal is inert.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List, Optional, Set, Tuple

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_,\s]+)\]\s*(?P<reason>.*)$"
)


class SuppressionIndex:
    """Per-line map of which rules are allowed, built from one file."""

    def __init__(self, source: str) -> None:
        # line -> set of rule ids allowed on that line
        self._by_line: Dict[int, Set[str]] = {}
        self._reasons: Dict[Tuple[int, str], str] = {}
        #: Every ``(comment line, rule id)`` named, for id validation.
        self.mentions: List[Tuple[int, str]] = []
        if "allow[" not in source:
            return  # nothing to find: skip tokenizing
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return

        lines = source.splitlines()
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if match is None:
                continue
            rules = {
                rule.strip().upper()
                for rule in match.group("rules").split(",")
                if rule.strip()
            }
            if not rules:
                continue
            lineno = token.start[0]
            self.mentions.extend((lineno, rule) for rule in sorted(rules))
            line_text = lines[lineno - 1] if lineno <= len(lines) else ""
            standalone = line_text.lstrip().startswith("#")
            target = lineno
            if standalone:
                target = self._next_code_line(lines, lineno)
            self._by_line.setdefault(target, set()).update(rules)
            reason = match.group("reason").strip().lstrip("-— ").strip()
            for rule in sorted(rules):
                if reason:
                    self._reasons[(target, rule)] = reason

    @staticmethod
    def _next_code_line(lines, comment_lineno: int) -> int:
        for offset, text in enumerate(lines[comment_lineno:], start=1):
            stripped = text.strip()
            if stripped and not stripped.startswith("#"):
                return comment_lineno + offset
        return comment_lineno  # trailing comment: nothing to attach to

    def allows(self, lineno: int, rule: str) -> bool:
        return rule.upper() in self._by_line.get(lineno, set())

    def reason(self, lineno: int, rule: str) -> Optional[str]:
        return self._reasons.get((lineno, rule.upper()))
