"""Plan executor: run a compiled plan once, fan results back to artifacts.

:func:`execute_plan` is the single choke point through which every
figure, table, bench, and ``reproduce`` run now performs measurement:

1. **cache partition** — each unique cell's content fingerprint is
   looked up in an optional result cache (duck-typed ``get``/``put``; in
   practice :class:`repro.harness.cache.MeasurementCache`).  Hits skip
   execution entirely — a warm rerun of the whole suite executes zero
   cells.
2. **one executor dispatch** — the misses run through a pluggable
   :class:`~repro.plan.executors.Executor` (default
   :class:`~repro.plan.executors.LocalExecutor`: a single
   :func:`repro.parallel.sweep.run_cells` sweep inheriting the whole
   PR-3/PR-4 stack — process pools, retry with backoff, per-cell
   timeouts, checkpoint/resume, fault injection; alternatively
   :class:`repro.cluster.DistributedExecutor`, which leases the same
   cells to a socket-connected worker fleet).  Each unique cell
   executes exactly once per plan, keyed by its readable
   first-requester label.
3. **cache write-back** — completed (and checkpoint-resumed) cells are
   written into the cache as they finish, so even an interrupted run
   warms future ones.
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
from repro.plan.executors import ExecutionRequest, Executor, LocalExecutor
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


class _CacheRecorder:
    """Checkpoint adapter that also write-backs results into the cache.

    The resilient engine talks to one duck-typed checkpoint
    (``has``/``result_for``/``record``) keyed by *sweep* fingerprints
    (function + key + args).  This adapter forwards those calls to the
    real checkpoint (when ``--resume`` is active) and mirrors every
    completed or resumed result into the content-addressed cache under
    the cell's *plan* fingerprint (function + args, no key).
    """

    def __init__(self, checkpoint, cache, plan_fp_for: dict[str, str]) -> None:
        self._checkpoint = checkpoint
        self._cache = cache
        self._plan_fp_for = plan_fp_for  # sweep fingerprint -> plan fingerprint

    def has(self, fingerprint: str) -> bool:
        return self._checkpoint is not None and self._checkpoint.has(fingerprint)

    def result_for(self, fingerprint: str):
        record = self._checkpoint.result_for(fingerprint)
        if self._cache is not None:
            self._cache.put(
                self._plan_fp_for[fingerprint], record.result, record.seconds
            )
        return record

    def record(self, fingerprint: str, key: Any, result: Any, seconds: float) -> None:
        if self._checkpoint is not None:
            self._checkpoint.record(fingerprint, key, result, seconds)
        if self._cache is not None:
            self._cache.put(self._plan_fp_for[fingerprint], result, seconds)


def execute_plan(
    plan: CompiledPlan,
    *,
    workers: int | None = None,
    options: SweepOptions | None = None,
    cache=None,
    label: str = "plan",
    executor: Executor | None = None,
) -> PlanResults:
    """Execute every unique cell of ``plan`` once and return the results.

    ``workers``/``options`` carry the sweep stack's knobs exactly as
    :func:`repro.parallel.sweep.run_cells` understands them
    (``options.workers`` wins over ``workers`` when both are given, so
    the reproduce driver's ``--workers`` flag applies uniformly).
    ``cache`` is an optional content-addressed result store with
    ``get(fingerprint) -> entry | None`` (entry carries ``result`` and
    ``seconds``) and ``put(fingerprint, result, seconds)``.

    ``executor`` selects *how* the cache-miss cells run: ``None`` (the
    default) uses :class:`~repro.plan.executors.LocalExecutor`, the
    historical in-process pool path; a
    :class:`repro.cluster.DistributedExecutor` leases the same cells to
    a socket-connected worker fleet instead.  Fingerprints, checkpoint
    lines, cache entries, and artifacts are identical across executors.

    A failing cell propagates :class:`repro.parallel.resilience.
    CellFailedError` after the other cells finish; everything completed
    by then has already been checkpointed and cached.
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
            workers=options.workers if options.workers is not None else workers,
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

            effective_workers = (
                options.workers if options.workers is not None else workers
            )

            checkpoint = None
            if options.checkpoint_dir:
                from repro.harness.checkpoint import open_checkpoint

                checkpoint = open_checkpoint(options.checkpoint_dir, label)
            sweep_stats = options.stats
            if sweep_stats is None:
                from repro.parallel.resilience import SweepStats

                sweep_stats = SweepStats()
            completed_before = sweep_stats.completed
            resumed_before = sweep_stats.resumed

            request = ExecutionRequest(
                cells=sweep_cells,
                label=label,
                workers=effective_workers,
                policy=options.policy,
                fault_plan=options.fault_plan,
                checkpoint=_CacheRecorder(checkpoint, cache, plan_fp_for)
                if (checkpoint is not None or cache is not None)
                else None,
                stats=sweep_stats,
                cache=cache,
                result_fingerprints=plan_fp_for,
            )
            try:
                outcomes = (executor or LocalExecutor()).run(request)
            finally:
                # Count execution even when a cell failed permanently: the
                # run report's plan section must reflect the work that DID
                # happen (and was checkpointed/cached) before the abort.
                stats.executed += sweep_stats.completed - completed_before
                stats.resumed += sweep_stats.resumed - resumed_before
            for fingerprint in misses:
                results[fingerprint] = outcomes[plan.labels[fingerprint]]

    return PlanResults(plan, results, stats)
