"""Static analysis guarding the reproduction's load-bearing invariants.

The whole evaluation strategy rests on the simulated cluster being
*deterministic* (seeded chaos runs must replay row-identical answers) and
on the cost model being *honest* (every cross-peer byte is priced through
:class:`~repro.sim.network.SimNetwork`).  Neither invariant is enforced by
the type system — one stray ``random.random()``, ``time.time()``, unsorted
``set`` iteration, or a direct peer-to-peer row fetch silently breaks them.

This package is a stdlib-``ast`` linter that encodes those invariants as
ten rules, each kept because it caught a real bug or guards a fixed point
the evaluation rests on.  The per-file rules check one parse tree at a
time; the *interprocedural* rules run on a whole-program import/call graph
(:mod:`repro.analysis.projectgraph`) built once per run from the same
parsed contexts, with value-flow (:mod:`repro.analysis.dataflow`) and
effect inference (:mod:`repro.analysis.effects`) layered on it:

========  ==================================================================
SIM003    nondeterministic ``set`` iteration feeding ordered results
ISO002    row-moving peer calls that bypass ``SimNetwork`` byte accounting
CFG001    config keys read with inline literal defaults that can drift
          from ``repro.core.config``
SEC002    peers admitted / credentialed before certificate verification
SEC003    tenant-controlled values (unrewritten rows, request payloads,
          certificates) flowing into privileged sinks unsanitized (§4.4
          dataflow, with source→sink traces)
RES004    cross-peer calls and call sites through which NetworkError-family
          exceptions escape with no resilience coverage or handler
ARCH001   imports violating the layering contract (``sim``/``sqlengine``/
          ``baton`` depend only on ``errors``; ``analysis`` is stdlib-only)
PURE001   effects (clock, randomness, I/O, network, shared mutation)
          reachable from executor kernels (effects)
DET003    wall-clock / real-I/O / global-random effects anywhere in the
          library outside ``bench``, ``console`` and ``analysis`` (effects)
ATOM001   bootstrap-metadata mutation on a path that bypasses the
          ``metalog`` WAL reducer (effects)
========  ==================================================================

Usage::

    python -m repro.analysis src tests benchmarks
    python -m repro.analysis --json src
    python -m repro.analysis --list-rules

A finding is fixed, or annotated where it stands with
``# repro: allow[RULE] reason``; there is no side file of exceptions, and
an ``allow`` naming an unknown rule id is an error.
"""

from repro.analysis.engine import (
    AnalysisReport,
    Analyzer,
    analyze_paths,
    analyze_project,
    analyze_source,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.registry import (
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    register_rule,
)

# Importing the rule modules registers the built-in rule set.
from repro.analysis import determinism as _determinism  # noqa: F401
from repro.analysis import isolation as _isolation  # noqa: F401
from repro.analysis import configrules as _configrules  # noqa: F401
from repro.analysis import archrules as _archrules  # noqa: F401
from repro.analysis import securityrules as _securityrules  # noqa: F401
from repro.analysis import dataflowrules as _dataflowrules  # noqa: F401
from repro.analysis import exceptionflow as _exceptionflow  # noqa: F401
from repro.analysis import effectrules as _effectrules  # noqa: F401

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "Finding",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "get_rule",
    "register_rule",
]
