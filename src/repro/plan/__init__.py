"""Declarative experiment plans: specs -> deduplicated cell DAG -> results.

The paper's evaluation is one coherent grid — (graph x strategy x engine
x parameter) measurement cells feeding Tables I-III and Figures 3-11 —
and several artifacts request the *same* cells (figures 4-6, table 3 and
figure 3 all need the suite's baseline measurements).  This package makes
that sharing structural instead of ad hoc:

* :class:`~repro.plan.spec.Cell` — one fingerprinted, picklable
  measurement request (a module-level function plus plain-data
  arguments, identified by :func:`repro.utils.fingerprint.stable_digest`
  of its content, so equal work has equal identity no matter who asks);
* :class:`~repro.plan.spec.ExperimentSpec` — one artifact: the cells it
  needs (under artifact-local keys) plus a ``build`` function that turns
  the cell results into the artifact value;
* :func:`~repro.plan.compiler.compile_plan` — merges any set of specs
  into one deduplicated :class:`~repro.plan.compiler.CompiledPlan`
  (each unique cell appears once, with every requester recorded);
* :func:`~repro.plan.executor.execute_plan` — runs the compiled plan
  through the fault-tolerant sweep stack
  (:func:`repro.parallel.sweep.run_cells`: retries, deadlines, local
  worker processes) exactly once per unique cell, warm-starting from an
  optional content-addressed result cache
  (:class:`repro.harness.cache.MeasurementCache`), and fans results
  back out to per-artifact views.
"""

from repro.plan.compiler import CompiledPlan, PlanStats, compile_plan
from repro.plan.executor import PlanResults, execute_plan
from repro.plan.executors import ExecutionRequest, LocalExecutor
from repro.plan.spec import Cell, ExperimentSpec

__all__ = [
    "Cell",
    "ExperimentSpec",
    "CompiledPlan",
    "PlanStats",
    "compile_plan",
    "PlanResults",
    "execute_plan",
    "ExecutionRequest",
    "LocalExecutor",
]
