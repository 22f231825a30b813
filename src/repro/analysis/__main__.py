"""Command-line entry point::

    python -m repro.analysis [paths] [--json] [--verbose] [--select RULES]
                             [--list-rules]

Runs the rule set over the paths (default: src tests benchmarks).  Exit
codes: 0 clean, 1 findings, 2 usage/internal error (a missing path, an
unknown ``--select`` id, or an ``allow[...]`` comment naming an unknown
rule).  A finding is fixed or suppressed inline
(``# repro: allow[RULE] reason``); there is no side file of grandfathered
findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.engine import Analyzer
from repro.analysis.registry import AnalysisError, all_rules
from repro.analysis.report import to_json, to_text

DEFAULT_PATHS = ["src", "tests", "benchmarks"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism, isolation & whole-program linter for the "
            "BestPeer++ reproduction."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to scan (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report (for CI)"
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed findings",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    return parser


def _select_rules(selector: str) -> List:
    known = {rule.id: rule for rule in all_rules()}
    selected = []
    for raw in selector.split(","):
        rule_id = raw.strip().upper()
        if not rule_id:
            continue
        if rule_id not in known:
            raise AnalysisError(
                f"unknown rule id: {rule_id!r} "
                f"(valid ids: {', '.join(sorted(known))})"
            )
        selected.append(known[rule_id])
    return selected


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            categories = ",".join(rule.categories)
            print(f"{rule.id}  [{rule.severity}] ({categories}) {rule.description}")
        return 0

    try:
        rules = _select_rules(args.select) if args.select else None
        report = Analyzer(rules=rules).run(args.paths or DEFAULT_PATHS)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(to_json(report, include_clean=args.verbose))
    else:
        print(to_text(report, verbose=args.verbose))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
