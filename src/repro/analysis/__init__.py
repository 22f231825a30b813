"""Static analysis guarding the reproduction's load-bearing invariants.

The whole evaluation strategy rests on the simulated cluster being
*deterministic* (seeded chaos runs must replay row-identical answers) and
on the cost model being *honest* (every cross-peer byte is priced through
:class:`~repro.sim.network.SimNetwork`).  Neither invariant is enforced by
the type system — one stray ``random.random()``, ``time.time()``, unsorted
``set`` iteration, or a direct peer-to-peer row fetch silently breaks them.

This package is a stdlib-``ast`` linter that encodes those invariants as
rules.  The per-file rules check one parse tree at a time; the
*interprocedural* rules run on a whole-program import/call graph
(:mod:`repro.analysis.projectgraph`) built once per run from the same
parsed contexts:

========  ==================================================================
SIM001    global / unseeded ``random`` module use
SIM002    wall clock (``time.time``/``sleep``, ``datetime.now``) instead of
          the sim clock
SIM003    nondeterministic ``set`` iteration feeding ordered results
SIM004    ``id()`` / hash-order leaking into outputs
ISO001    cross-object reach into another component's private state
ISO002    row-moving peer calls that bypass ``SimNetwork`` byte accounting
CFG001    config keys read with inline literal defaults that can drift
          from ``repro.core.config``
SIM005    wall-clock / global-random *values* flowing into EventQueue
          timestamps or FaultPlan/RNG seeds (dataflow)
SEC001    rows fetched without access rewriting reaching a cross-peer
          transfer with no role check on the path (§4.4 taint)
SEC002    peers admitted / credentialed before certificate verification
SEC003    tenant-controlled values (rows, request payloads, certificates)
          flowing into privileged sinks unsanitized (§4.4 dataflow, with
          source→sink traces)
RES001    cross-peer call sites not covered by a RetryPolicy/deadline
          context from ``repro.core.resilience``
RES004    call sites through which NetworkError-family exceptions escape
          to an entry point with no coverage on the propagation path
PERF002   per-row evaluator call inside a rows-loop of a module that
          declares vectorized kernels (batch via ``sqlengine.vectorize``)
ARCH001   imports violating the layering contract (``sim``/``sqlengine``/
          ``baton`` depend only on ``errors``; ``analysis`` is stdlib-only)
PURE001   effects (clock, randomness, I/O, network, shared mutation)
          reachable from compiled evaluators / executor kernels (effects)
DET003    wall-clock / real-I/O / global-random effects reachable from
          EventQueue handlers and ``repro.sim`` callbacks (effects)
ATOM001   bootstrap-metadata mutation paired with a network send that
          bypasses the ``metalog`` WAL reducer (effects)
========  ==================================================================

The ``effects`` rows run on the fourth tier — interprocedural effect
inference (:mod:`repro.analysis.effects`), which assigns every function a
``{wallclock, global_random, real_io, network_send, mutates, raises}``
signature by SCC fixpoint over the call graph; query it directly with
``python -m repro.analysis effects --who-touches clock``.

Usage::

    python -m repro.analysis src tests benchmarks
    python -m repro.analysis --json src
    python -m repro.analysis --list-rules
    python -m repro.analysis graph --format dot src
    python -m repro.analysis effects --who-touches clock src

A finding is fixed, or annotated where it stands with
``# repro: allow[RULE] reason``; there is no side file of exceptions.
"""

from repro.analysis.astcache import AstCache
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
from repro.analysis import resiliencerules as _resiliencerules  # noqa: F401
from repro.analysis import perfrules as _perfrules  # noqa: F401
from repro.analysis import dataflowrules as _dataflowrules  # noqa: F401
from repro.analysis import exceptionflow as _exceptionflow  # noqa: F401
from repro.analysis import effectrules as _effectrules  # noqa: F401

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "AstCache",
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
