"""Command-line entry point: ``python -m repro.analysis [paths]``.

Three modes:

* lint (default) — run the rule set over the paths;
* ``graph`` — build the whole-program import/call graph only and export it
  (``python -m repro.analysis graph --format json|dot [paths]``);
* ``effects`` — run tier-4 effect inference and query the signatures
  (``python -m repro.analysis effects --who-touches clock``,
  ``... effects --signature repro.sim.events.EventQueue.run``).

Exit codes: 0 clean, 1 findings, 2 usage/internal error.  A finding is
fixed or suppressed inline (``# repro: allow[RULE] reason``); there is no
side file of grandfathered findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.astcache import AstCache
from repro.analysis.engine import Analyzer, analyze_source
from repro.analysis.registry import AnalysisError, all_rules, get_rule
from repro.analysis.report import to_json, to_text
from repro.analysis.sarif import to_sarif

DEFAULT_PATHS = ["src", "tests", "benchmarks"]
DEFAULT_GRAPH_PATHS = ["src"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism, sim-isolation & whole-program linter for the "
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
        "--ast-cache",
        metavar="DIR",
        help="directory caching parsed ASTs across runs (lint + graph share it)",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE (for code scanning)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help=(
            "print one rule's rationale plus a minimal violating and a "
            "clean example (both are run through the analyzer), then exit"
        ),
    )
    return parser


def _build_graph_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis graph",
        description=(
            "Export the whole-program module-import and call graph that "
            "the interprocedural rules (SEC001/SEC002/RES001/ARCH001) run on."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to graph "
            f"(default: {' '.join(DEFAULT_GRAPH_PATHS)})"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("dot", "json"),
        default="dot",
        help="output format (default: dot)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write to FILE instead of stdout",
    )
    parser.add_argument(
        "--ast-cache",
        metavar="DIR",
        help="directory caching parsed ASTs across runs (lint + graph share it)",
    )
    return parser


#: Friendly aliases for ``effects --who-touches``.
WHO_TOUCHES_ALIASES = {
    "clock": "wallclock",
    "wallclock": "wallclock",
    "random": "global_random",
    "global_random": "global_random",
    "io": "real_io",
    "real_io": "real_io",
    "network": "network_send",
    "network_send": "network_send",
}


def _build_effects_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis effects",
        description=(
            "Infer every function's effect signature (tier 4) and query "
            "the result: who can touch the clock, what may this function "
            "do, and through which call chain."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to analyze "
            f"(default: {' '.join(DEFAULT_GRAPH_PATHS)})"
        ),
    )
    parser.add_argument(
        "--who-touches",
        metavar="EFFECT",
        choices=sorted(WHO_TOUCHES_ALIASES),
        help=(
            "list functions whose signature contains the effect "
            f"({', '.join(sorted(set(WHO_TOUCHES_ALIASES)))}) with a "
            "witness call chain each"
        ),
    )
    parser.add_argument(
        "--signature",
        metavar="FUNCTION",
        help=(
            "print one function's inferred signature (dotted form, e.g. "
            "repro.sim.events.EventQueue.run)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write to FILE instead of stdout",
    )
    parser.add_argument(
        "--ast-cache",
        metavar="DIR",
        help="directory caching parsed ASTs across runs (all modes share it)",
    )
    return parser


def _make_cache(directory: Optional[str]) -> Optional[AstCache]:
    if directory is None:
        return None
    try:
        return AstCache(directory)
    except OSError as exc:
        raise AnalysisError(
            f"cannot use AST cache directory {directory!r}: {exc}"
        ) from exc


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


def _indent(text: str, prefix: str = "    ") -> str:
    return "\n".join(
        f"{prefix}{line}" if line else "" for line in text.splitlines()
    )


def explain_main(rule_id: str) -> int:
    """``--explain RULE``: rationale plus a verified example pair.

    Both examples are actually run through the analyzer with just this
    rule: the violating one must fire and the clean one must not, so the
    printed documentation can never silently rot.
    """
    rule = get_rule(rule_id.strip().upper())
    print(f"{rule.id} [{rule.severity}] — {rule.description}")
    print()
    if rule.rationale:
        print("Why this matters:")
        print(_indent(rule.rationale, "  "))
        print()
    if not rule.example_violation or not rule.example_clean:
        print("(no worked examples recorded for this rule)")
        return 0

    def fires(source: str) -> bool:
        findings = analyze_source(
            source, path=rule.example_path, category="src", rules=[rule]
        )
        return any(f.rule == rule.id for f in findings)

    bad_fires = fires(rule.example_violation)
    clean_fires = fires(rule.example_clean)
    print(f"Violation ({'fires' if bad_fires else 'DOES NOT FIRE — stale example!'}):")
    print(_indent(rule.example_violation))
    print()
    print(f"Clean ({'quiet' if not clean_fires else 'FIRES — stale example!'}):")
    print(_indent(rule.example_clean))
    if not bad_fires or clean_fires:
        print()
        print(f"error: {rule.id}'s examples are out of date", file=sys.stderr)
        return 2
    return 0


def graph_main(argv: List[str]) -> int:
    parser = _build_graph_parser()
    args = parser.parse_args(argv)
    try:
        analyzer = Analyzer(rules=[], ast_cache=_make_cache(args.ast_cache))
        graph = analyzer.build_graph(args.paths or DEFAULT_GRAPH_PATHS)
        if args.format == "json":
            rendered = json.dumps(graph.to_json_dict(), indent=2) + "\n"
        else:
            rendered = graph.to_dot()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(
                f"wrote {args.format} graph of {len(graph.modules)} "
                f"module(s) to {args.out}"
            )
        else:
            sys.stdout.write(rendered)
        return 0
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _witness_dicts(inference, hops) -> List[dict]:
    from repro.analysis.effects import short_qual

    rendered = []
    for i, (qual, lineno, note) in enumerate(hops):
        module = inference.graph.module_of_function(qual)
        text = (
            f"{short_qual(qual)} {note}"
            if i + 1 < len(hops)
            else f"{short_qual(qual)}: {note}"
        )
        rendered.append(
            {
                "path": module.path if module is not None else "<unknown>",
                "line": lineno,
                "note": text,
            }
        )
    return rendered


def effects_main(argv: List[str]) -> int:
    from repro.analysis.effects import (
        EFFECT_TAG,
        EffectInference,
        dotted_qual,
        parse_dotted_qual,
    )

    parser = _build_effects_parser()
    args = parser.parse_args(argv)
    try:
        analyzer = Analyzer(rules=[], ast_cache=_make_cache(args.ast_cache))
        graph = analyzer.build_graph(args.paths or DEFAULT_GRAPH_PATHS)
        graph.ast_cache = analyzer.ast_cache
        inference = EffectInference.for_graph(graph)

        lines: List[str] = []
        payload: dict = {"version": EFFECT_TAG}
        if args.signature:
            qual = parse_dotted_qual(args.signature, inference.bases)
            if qual is None:
                raise AnalysisError(
                    f"unknown function: {args.signature!r} (use the dotted "
                    "form, e.g. repro.sim.events.EventQueue.run)"
                )
            signature = inference.signature(qual)
            payload["function"] = dotted_qual(qual)
            payload["signature"] = signature.to_dict()
            lines.append(f"{dotted_qual(qual)}  {signature.render()}")
        elif args.who_touches:
            kind = WHO_TOUCHES_ALIASES[args.who_touches]
            matches = []
            for qual in sorted(inference.bases):
                if not inference.has_effect(qual, lambda a: a[0] == kind):
                    continue
                hops = inference.witness(qual, lambda a: a[0] == kind)
                matches.append(
                    {
                        "function": dotted_qual(qual),
                        "signature": inference.signature(qual).to_dict(),
                        "witness": _witness_dicts(inference, hops or []),
                    }
                )
                lines.append(
                    f"{dotted_qual(qual)}  "
                    f"{inference.signature(qual).render()}"
                )
                for hop in _witness_dicts(inference, hops or []):
                    lines.append(
                        f"    via: {hop['path']}:{hop['line']}: {hop['note']}"
                    )
            payload["effect"] = kind
            payload["functions"] = matches
            lines.append(
                f"{len(matches)} function(s) can touch {kind} "
                f"(of {len(inference.bases)})"
            )
        else:
            impure = {}
            pure_count = 0
            for qual in sorted(inference.bases):
                signature = inference.signature(qual)
                if signature.pure and not signature.raises:
                    pure_count += 1
                    continue
                impure[dotted_qual(qual)] = signature.to_dict()
                lines.append(f"{dotted_qual(qual)}  {signature.render()}")
            payload["functions"] = impure
            payload["pure"] = pure_count
            payload["total"] = len(inference.bases)
            lines.append(
                f"{len(impure)} function(s) with effects, {pure_count} pure, "
                f"{len(inference.bases)} total"
            )

        if args.format == "json":
            rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            rendered = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"wrote effect signatures to {args.out}")
        else:
            sys.stdout.write(rendered)
        return 0
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "graph":
        return graph_main(argv[1:])
    if argv and argv[0] == "effects":
        return effects_main(argv[1:])

    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            categories = ",".join(rule.categories)
            print(f"{rule.id}  [{rule.severity}] ({categories}) {rule.description}")
        return 0

    try:
        if args.explain:
            return explain_main(args.explain)

        rules = None
        if args.select:
            rules = _select_rules(args.select)

        paths = args.paths or DEFAULT_PATHS
        report = Analyzer(
            rules=rules, ast_cache=_make_cache(args.ast_cache)
        ).run(paths)

        if args.sarif:
            sarif_rules = rules if rules is not None else all_rules()
            with open(args.sarif, "w", encoding="utf-8") as handle:
                handle.write(to_sarif(report, sarif_rules))
                handle.write("\n")

        if args.json:
            print(to_json(report, include_clean=args.verbose))
        else:
            print(to_text(report, verbose=args.verbose))
        return 0 if report.ok else 1
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
