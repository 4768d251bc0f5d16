"""Plan executor: run a compiled plan once, fan results back to artifacts.

:func:`execute_plan` is the single choke point through which every
figure, table, bench, and ``reproduce`` run now performs measurement:

1. **cache partition** — each unique cell's content fingerprint is
   looked up in an optional result cache (duck-typed ``get``/``put``; in
   practice :class:`repro.harness.cache.MeasurementCache`).  Hits skip
   execution entirely — a warm rerun of the whole suite executes zero
   cells.
2. **one sweep** — the misses run through
   :class:`~repro.plan.executors.LocalExecutor`: a single
   :func:`repro.parallel.sweep.run_cells` sweep inheriting the whole
   resilience stack — serial in-process, or leased to local worker
   processes for ``workers >= 2``; retry with backoff, per-cell
   deadlines, fault injection.  Each unique cell executes exactly once
   per plan, keyed by its readable first-requester label.
3. **cache write-back** — completed cells are written into the cache
   as they finish, by the process that ran them, so an interrupted run
   resumes by being rerun against the same cache: step 1 skips
   everything it finished.
4. **fan-out** — :meth:`PlanResults.artifact` resolves any spec's local
   keys against the shared result pool and calls its ``build``.

The executor deliberately takes the cache as a duck-typed parameter
instead of importing ``repro.harness.cache`` — the harness imports this
package to declare its specs, and the plan layer must not import the
harness back.
"""

from __future__ import annotations

from typing import Any

from repro.obs import events as _events
from repro.obs.log import get_logger
from repro.obs.spans import current_recorder, span
from repro.parallel.resilience import SweepOptions
from repro.parallel.sweep import SweepCell
from repro.plan.compiler import CompiledPlan, PlanStats
from repro.plan.executors import ExecutionRequest, LocalExecutor
from repro.utils.fingerprint import cell_fingerprint

__all__ = ["PlanResults", "execute_plan"]

log = get_logger("plan.executor")


class PlanResults:
    """Resolved results of one plan execution, viewable per artifact."""

    def __init__(
        self, plan: CompiledPlan, results: dict[str, Any], stats: PlanStats
    ) -> None:
        self.plan = plan
        self.results = results  # fingerprint -> cell result
        self.stats = stats

    def values_for(self, name: str) -> dict[Any, Any]:
        """``{local_key: result}`` for the spec called ``name``."""
        return {
            local_key: self.results[fingerprint]
            for local_key, fingerprint in self.plan.requests[name].items()
        }

    def artifact(self, name: str) -> Any:
        """Build and return the artifact of the spec called ``name``."""
        return self.plan.spec(name).build(self.values_for(name))


def execute_plan(
    plan: CompiledPlan,
    *,
    workers: int | None = None,
    options: SweepOptions | None = None,
    cache=None,
    label: str = "plan",
) -> PlanResults:
    """Execute every unique cell of ``plan`` once and return the results.

    ``workers``/``options`` carry the sweep stack's knobs exactly as
    :func:`repro.parallel.sweep.run_cells` understands them
    (``workers >= 2`` leases the cells to local worker processes).
    ``cache`` is an optional content-addressed result store with
    ``get(fingerprint) -> entry | None`` (entry carries ``result`` and
    ``seconds``) and ``put(fingerprint, result, seconds)``; rerunning an
    interrupted plan against the same cache executes only the cells it
    had not finished.  Pooled workers write into the cache's
    ``directory`` (a :class:`repro.harness.cache.MeasurementCache`); a
    cache without one is written by serial runs only.

    Fingerprints, cache entries, and artifacts are identical for every
    worker count.

    A failing cell propagates :class:`repro.parallel.resilience.
    CellFailedError` after the other cells finish; everything completed
    by then has already been cached.
    """
    stats = plan.stats
    options = options or SweepOptions()
    recorder = current_recorder()
    with span(f"plan[{label}]") as plan_span:
        base = getattr(plan_span, "path", None)
        prefix = f"{base}/" if base else ""

        _events.emit(
            "plan_started",
            cell=label,
            cells_unique=plan.cells_unique,
            cells_requested=plan.cells_requested,
            workers=workers,
        )
        results: dict[str, Any] = {}
        misses: list[str] = []
        for fingerprint in plan.cells:
            entry = cache.get(fingerprint) if cache is not None else None
            if entry is not None:
                results[fingerprint] = entry.result
                stats.cache_hits += 1
                if recorder is not None:
                    recorder.record(
                        f"{prefix}cache_hit[{plan.labels[fingerprint]}]",
                        entry.seconds,
                    )
                hit_payload: dict[str, Any] = {"seconds": entry.seconds}
                gail = _events.gail_payload(entry.result)
                if gail is not None:
                    hit_payload["gail"] = gail
                _events.emit(
                    "cache_hit",
                    cell=plan.labels[fingerprint],
                    fingerprint=fingerprint,
                    **hit_payload,
                )
            else:
                misses.append(fingerprint)

        if misses:
            sweep_cells = []
            plan_fp_for: dict[str, str] = {}
            for fingerprint in misses:
                cell = plan.cells[fingerprint]
                key = plan.labels[fingerprint]
                sweep_cells.append(
                    SweepCell(key=key, fn=cell.fn, args=cell.args, kwargs=cell.kwargs)
                )
                plan_fp_for[
                    cell_fingerprint(cell.fn, key, cell.args, cell.kwargs)
                ] = fingerprint

            sweep_stats = options.stats
            if sweep_stats is None:
                from repro.parallel.resilience import SweepStats

                sweep_stats = SweepStats()
            completed_before = sweep_stats.completed

            request = ExecutionRequest(
                cells=sweep_cells,
                label=label,
                workers=workers,
                policy=options.policy,
                fault_plan=options.fault_plan,
                stats=sweep_stats,
                cache=cache,
                result_fingerprints=plan_fp_for,
                bind=options.bind,
                lease_seconds=options.lease_seconds,
            )
            try:
                outcomes = LocalExecutor().run(request)
            finally:
                # Count execution even when a cell failed permanently: the
                # run report's plan section must reflect the work that DID
                # happen (and was cached) before the abort.
                stats.executed += sweep_stats.completed - completed_before
            for fingerprint in misses:
                results[fingerprint] = outcomes[plan.labels[fingerprint]]

    return PlanResults(plan, results, stats)
