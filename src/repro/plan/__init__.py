"""The one distributed-plan layer every executor consumes.

The paper's three engines (§5.2-§5.4) and the baseline they are measured
against (§6.1.3) run the *same* compiled plan, and Algorithm 2 (§5.5) is
only a cost choice if each returns the same rows.  So what a plan is
(:mod:`~repro.plan.sms`: plan dataclasses, planner, the ``compile_text``
door and its cache) and how its root-side steps are computed
(:mod:`~repro.plan.driver`: the job driver, ``aggregate_rows``,
``merge_partial_rows``, ``finalize_records``) is defined here and nowhere
else.  ARCH001: this package imports ``errors``, ``sqlengine`` and
``mapreduce`` only — never the platform, never the baseline.
"""

from repro.plan.driver import (
    DistributedPlanDriver,
    aggregate_rows,
    finalize_records,
    merge_partial_rows,
    partial_merger,
)
from repro.plan.sms import DistributedPlan, SmsPlanner, partial_aggregate_plan

__all__ = [
    "SmsPlanner",
    "DistributedPlan",
    "partial_aggregate_plan",
    "DistributedPlanDriver",
    "aggregate_rows",
    "merge_partial_rows",
    "partial_merger",
    "finalize_records",
]
