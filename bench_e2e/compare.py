"""Compare two bench_e2e result files under each metric's own bound.

    python bench_e2e/compare.py A.json B.json

One row per (workload, metric).  A is the base: every ratio is B / A and
the base value is printed beside it.  Verdicts:

* ``ok``         — B is not worse than A by more than the metric's bound,
* ``worse``      — it is,
* ``unresolved`` — the runs inside A or inside B (``--repeat``) already
  differ by more than the bound, so the comparison cannot tell,
* ``info``       — the metric has no bound (per-layer); shown, not judged.

With several runs per file the medians are compared.  Exit code 1 if any
row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from bench_e2e.stats import END_TO_END, PER_LAYER, SIM_REL_TOL, Metric, worse_by  # noqa: E402


def _values(document: Dict, workload: str, metric: str) -> List[float]:
    runs = document["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric] for run in runs
            if run["metrics"].get(metric) is not None]


def _spread(values: Sequence[float]) -> float:
    """(max - min) / |median| of one file's own runs; 0 with a single run."""
    if len(values) < 2:
        return 0.0
    middle = abs(statistics.median(values))
    return (max(values) - min(values)) / middle if middle else float(max(values) != min(values))


def verdict(metric: Metric, base: Sequence[float], new: Sequence[float]) -> str:
    if metric.bound is None:
        return "info"
    # Exact metrics get float-printing slack, nothing more.
    bound = metric.bound if metric.bound > 0 else SIM_REL_TOL
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    return "worse" if worse_by(metric, statistics.median(base), statistics.median(new)) > bound else "ok"


def report(base_doc: Dict, new_doc: Dict) -> int:
    """Print the comparison; returns how many rows are worse or unresolved."""
    bad = 0
    print(f"\n{'workload':<20} {'metric':<34} {'base':>14} {'new':>14} {'new/base':>9}  verdict")
    for workload in base_doc["workloads"]:
        for metric in END_TO_END + PER_LAYER:
            base = _values(base_doc, workload, metric.name)
            new = _values(new_doc, workload, metric.name)
            if not base or not new:
                continue
            a, b = statistics.median(base), statistics.median(new)
            ratio = f"{b / a:9.4f}" if a else f"{'-':>9}"
            outcome = verdict(metric, base, new)
            bad += outcome in ("worse", "unresolved")
            print(f"{workload:<20} {metric.name:<34} {a:>14.6g} {b:>14.6g} {ratio}  {outcome}")
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return 1 if report(*documents) else 0


if __name__ == "__main__":
    sys.exit(main())
