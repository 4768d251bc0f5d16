"""Fault-tolerant execution engine behind :func:`repro.parallel.sweep.run_cells`.

A figure sweep is a long, embarrassingly-parallel measurement campaign;
a single worker crash, poisoned result, or stuck cell must not forfeit
the whole run.  Serial sweeps run here, in-process; pooled sweeps
(``workers >= 2``) lease their cells to local worker processes through
the fleet coordinator (:func:`repro.cluster.executor.run_fleet`), which
shares this module's accounting.  Either way cells get:

* **per-cell retry with deterministic exponential backoff** — a failed
  attempt is rescheduled up to ``max_retries`` times, waiting
  ``backoff_base * backoff_factor**attempt`` seconds between attempts
  (jitterless: delays are a pure function of the attempt number, so a
  rerun schedules identically);
* **per-cell wall-clock deadlines** (pooled runs) — a lease's deadline
  starts when the cell is granted to an idle worker, so it measures
  execution, not queueing; a cell past its deadline is charged a failed
  attempt and its worker is replaced, so a non-terminating cell never
  wedges the sweep;
* **worker-death recovery** — a dead worker's cells are requeued
  uncharged and the worker is respawned up to ``max_pool_restarts``
  times, after which the remaining cells run in-process, serially;
* **cache writes where the cell ran** — with a ``cache``, the process
  that executed a cell stores its result, so an interrupted run
  resumes by being rerun against the same cache;
* **deterministic fault injection** — an explicit
  :class:`~repro.parallel.faults.FaultPlan` (or one from the
  ``REPRO_FAULT_PLAN`` environment variable) wraps every attempt, which
  is how the chaos test suite proves all of the above correct;
* **failure attribution** — a cell that exhausts its retries raises
  :class:`CellFailedError` naming the cell key and chaining the original
  exception (with the worker traceback), *after* every other cell has
  been given the chance to finish (and be cached).  No hung workers,
  no anonymous tracebacks.

Results are bit-identical to a fault-free serial run whenever retries
recover, because cells are deterministic functions of their arguments
and results fold by submission order, never completion order.  Retry
activity is observable: spans (``sweep[label]/retry[key]``), trace
counter samples (``sweep_resilience``), and a :class:`SweepStats`
summary that lands in the ``resilience`` section of run reports.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Any, Callable

from repro.obs import events as _events
from repro.obs.log import get_logger
from repro.obs.spans import current_recorder, span
from repro.obs.trace import counter_sample
from repro.parallel.faults import (
    FaultInjected,
    FaultPlan,
    InjectedCrash,
    InjectedTimeout,
    is_corrupt,
)
from repro.utils.fingerprint import cell_fingerprint

__all__ = [
    "RetryPolicy",
    "SweepStats",
    "SweepOptions",
    "CellFailedError",
    "CorruptResultError",
    "CellTimeoutError",
    "execute_cells",
    "default_workers",
    "resolve_policy",
    "record_attempt_failure",
    "DEFAULT_BIND",
    "DEFAULT_LEASE_SECONDS",
]

log = get_logger("parallel.resilience")

#: Where a pooled sweep's coordinator listens: loopback, ephemeral port.
DEFAULT_BIND = ("127.0.0.1", 0)
#: How long a silent worker may hold a leased cell (seconds).
DEFAULT_LEASE_SECONDS = 30.0


def default_workers() -> int:
    """Worker count used for ``--workers 0`` (auto): one per *usable* CPU.

    ``sched_getaffinity`` sees cgroup/affinity masks (CI containers,
    ``taskset``), so a 2-CPU runner on a 64-core host gets 2 workers,
    not 64; platforms without it fall back to ``os.cpu_count()``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class CellFailedError(RuntimeError):
    """A sweep cell exhausted its retries.

    Subclasses ``RuntimeError`` and embeds the original exception message
    so existing ``except RuntimeError`` handlers keep working; the
    original exception (with its remote traceback, when it crossed a
    process boundary) is chained as ``__cause__``.
    """

    def __init__(self, key: Any, attempts: int, cause: BaseException, *, also_failed=()):
        self.key = key
        self.attempts = attempts
        self.also_failed = tuple(also_failed)
        message = (
            f"sweep cell [{key!r}] failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        if self.also_failed:
            message += f" (also failed: {', '.join(repr(k) for k in self.also_failed)})"
        super().__init__(message)


class CorruptResultError(FaultInjected):
    """A cell returned the corruption poison value."""


class CellTimeoutError(RuntimeError):
    """A cell overran its wall-clock deadline or its worker went silent."""


@dataclass(frozen=True)
class RetryPolicy:
    """How failures are retried.

    ``max_retries`` is the number of *re*-attempts (total attempts =
    ``max_retries + 1``).  Backoff is deterministic and jitterless:
    ``backoff_base * backoff_factor**attempt`` seconds after the
    ``attempt``-th failure (0-based); the default base of 0 disables
    sleeping entirely, which is right for in-process simulation cells.
    ``cell_timeout`` (seconds) is enforced in pooled runs only — an
    in-process cell cannot be preempted.  A timed-out cell costs its
    worker process (terminated and replaced), so set it well above the
    slowest legitimate cell.  ``max_pool_restarts`` bounds how many dead
    workers a pooled sweep respawns before it finishes serially.
    """

    max_retries: int = 2
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    cell_timeout: float | None = None
    max_pool_restarts: int = 1

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt number ``attempt + 1`` (seconds)."""
        if self.backoff_base <= 0.0:
            return 0.0
        return self.backoff_base * self.backoff_factor**attempt

    @classmethod
    def covering(cls, plan: FaultPlan | None, **overrides) -> "RetryPolicy":
        """A policy whose retries outlast ``plan``'s per-cell fault budget."""
        if plan is not None:
            overrides.setdefault("max_retries", max(2, plan.max_per_cell))
        return cls(**overrides)


def resolve_policy(
    policy: "RetryPolicy | None", fault_plan: FaultPlan | None
) -> "RetryPolicy":
    """The engine's default-policy selection, shared with the cluster.

    With faults flying, a no-retry default would be self-defeating:
    cover the plan's per-cell budget unless the caller chose a policy.
    """
    if policy is not None:
        return policy
    if fault_plan is not None:
        return RetryPolicy.covering(fault_plan)
    return RetryPolicy(max_retries=0)


@dataclass
class SweepStats:
    """Counters describing one (or several accumulated) resilient sweeps.

    ``as_dict()`` is the ``resilience`` section of a run report
    (``docs/metrics_schema.md``).
    """

    cells: int = 0
    completed: int = 0
    retries: int = 0
    injected_faults: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    serial_fallback: bool = False
    failed: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "cells": self.cells,
            "completed": self.completed,
            "retries": self.retries,
            "injected_faults": self.injected_faults,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "serial_fallback": self.serial_fallback,
            "failed": list(self.failed),
        }


@dataclass
class SweepOptions:
    """Bundle of resilience settings threaded through the figure sweeps.

    ``stats`` accumulates across every sweep of a reproduce run so the
    final report shows one total.  ``bind`` and ``lease_seconds`` set
    the coordinator of pooled runs (its listen address, and how long a
    silent worker may hold a cell).
    """

    policy: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    stats: SweepStats | None = None
    bind: tuple[str, int] = DEFAULT_BIND
    lease_seconds: float = DEFAULT_LEASE_SECONDS


# ----------------------------------------------------------------------
# one attempt, in whichever process runs the cell
# ----------------------------------------------------------------------
def _attempt_cell(cell, attempt: int, plan: FaultPlan | None, fingerprint: str):
    """Run one attempt of one cell, honouring the fault plan (serial
    sweeps call this in the parent, fleet workers in their process)."""
    # Spans left over from a previous failed attempt on this worker would
    # otherwise be attributed to this cell's finish event.
    _events.drain_worker_buffers()
    _events.emit(
        "cell_started", cell=cell.key, fingerprint=fingerprint, attempt=attempt
    )
    start = perf_counter()
    if plan is not None:
        kind = plan.decide(fingerprint, attempt)
        if kind == "crash":
            raise InjectedCrash(
                f"injected crash for cell [{cell.key!r}] attempt {attempt}"
            )
        if kind == "timeout":
            raise InjectedTimeout(
                f"injected timeout for cell [{cell.key!r}] attempt {attempt}"
            )
        if kind == "corrupt":
            from repro.parallel.faults import CORRUPT_RESULT

            # No cell_finished: the parent charges this attempt as a fault.
            return CORRUPT_RESULT, perf_counter() - start
    result = cell.fn(*cell.args, **cell.kwargs)
    seconds = perf_counter() - start
    payload: dict = {"seconds": seconds}
    payload.update(_events.drain_worker_buffers())
    gail = _events.gail_payload(result)
    if gail is not None:
        payload["gail"] = gail
    if _events.in_worker():
        payload["resources"] = _events.resource_snapshot()
    _events.emit(
        "cell_finished",
        cell=cell.key,
        fingerprint=fingerprint,
        attempt=attempt,
        **payload,
    )
    return result, seconds


def record_attempt_failure(
    run,
    exc: BaseException,
    elapsed: float,
    *,
    policy: RetryPolicy,
    stats: SweepStats,
    note: Callable[[str, float], None],
    failures: list,
    label: str,
) -> bool:
    """Count one failed attempt of ``run``; return True if it will retry.

    The single source of truth for failure accounting, shared by serial
    sweeps and the fleet coordinator (:mod:`repro.cluster.coordinator`):
    emits the ``cell_faulted`` /
    ``cell_timeout`` / ``cell_retried`` events, bumps the
    :class:`SweepStats` counters, records the deterministic backoff in
    ``run.not_before`` (never slept here — callers keep dispatching),
    and appends permanent failures to ``failures`` as ``(run, exc)``.
    ``run`` is duck-typed: ``cell.key``, ``fingerprint``, ``attempt``,
    ``not_before``.
    """
    if isinstance(exc, FaultInjected):
        stats.injected_faults += 1
    if isinstance(exc, (InjectedTimeout, CellTimeoutError)):
        stats.timeouts += 1
    will_retry = run.attempt < policy.max_retries
    _events.emit(
        "cell_timeout"
        if isinstance(exc, (InjectedTimeout, CellTimeoutError))
        else "cell_faulted",
        cell=run.cell.key,
        fingerprint=run.fingerprint,
        attempt=run.attempt,
        error=type(exc).__name__,
        message=str(exc),
        injected=isinstance(exc, FaultInjected),
        permanent=not will_retry,
        seconds=elapsed,
    )
    if will_retry:
        stats.retries += 1
        note(f"retry[{run.cell.key}]", elapsed)
        _events.emit(
            "cell_retried",
            cell=run.cell.key,
            fingerprint=run.fingerprint,
            attempt=run.attempt,
            next_attempt=run.attempt + 1,
            backoff=policy.delay(run.attempt),
        )
        log.warning(
            "%s: cell [%r] attempt %d failed (%s: %s); retrying",
            label,
            run.cell.key,
            run.attempt,
            type(exc).__name__,
            exc,
        )
        # Backoff is recorded, never slept here: in a pooled run this
        # runs on a coordinator thread, which must keep servicing the
        # other cells' completions and deadlines while one cell backs off.
        run.not_before = monotonic() + policy.delay(run.attempt)
        run.attempt += 1
        return True
    failures.append((run, exc))
    stats.failed.append(repr(run.cell.key))
    log.error(
        "%s: cell [%r] failed permanently after %d attempt(s): %s: %s",
        label,
        run.cell.key,
        run.attempt + 1,
        type(exc).__name__,
        exc,
    )
    return False


class _CellRun:
    """Mutable scheduling state of one cell across its attempts.

    ``cache_fingerprint`` is the content fingerprint the result is
    cached under (``None``: the sweep fingerprint itself).
    """

    __slots__ = (
        "index", "cell", "fingerprint", "cache_fingerprint", "attempt", "not_before",
    )

    def __init__(
        self, index: int, cell, fingerprint: str, cache_fingerprint: str | None = None
    ) -> None:
        self.index = index
        self.cell = cell
        self.fingerprint = fingerprint
        self.cache_fingerprint = cache_fingerprint
        self.attempt = 0
        self.not_before = 0.0  # monotonic() before which a retry must not start


def cell_runs(
    cells: list, result_fingerprints: dict[str, str] | None = None
) -> list[_CellRun]:
    """One :class:`_CellRun` per cell, in submission order."""
    cache_fingerprints = result_fingerprints or {}
    runs = []
    for index, cell in enumerate(cells):
        fingerprint = cell_fingerprint(cell.fn, cell.key, cell.args, cell.kwargs)
        runs.append(
            _CellRun(index, cell, fingerprint, cache_fingerprints.get(fingerprint))
        )
    return runs


def run_serial(
    runs: list[_CellRun],
    plan: FaultPlan | None,
    *,
    complete: Callable[[_CellRun, Any, float], None],
    fail: Callable[[_CellRun, BaseException, float], bool],
) -> None:
    """Attempt each run in-process until it completes or ``fail`` gives up.

    Shared by serial sweeps and the fleet's serial fallback; ``fail``
    is the caller's :func:`record_attempt_failure` binding.
    """
    for run in runs:
        while True:
            pause = run.not_before - monotonic()
            if pause > 0.0:
                time.sleep(pause)
            start = perf_counter()
            try:
                result, seconds = _attempt_cell(
                    run.cell, run.attempt, plan, run.fingerprint
                )
                if is_corrupt(result):
                    raise CorruptResultError(
                        f"cell [{run.cell.key!r}] returned a corrupt result"
                    )
            except Exception as exc:  # noqa: BLE001 — every cell error retries
                if fail(run, exc, perf_counter() - start):
                    continue
                break
            complete(run, result, seconds)
            break


def fold_results(
    cells: list, outcomes: dict[int, Any], failures: list
) -> dict[Any, Any]:
    """``{cell.key: result}`` in submission order, or raise.

    :class:`CellFailedError` names the first permanently failed cell and
    chains its cause.  Submission order, never completion order: with
    duplicate keys the last-submitted cell wins, exactly as a serial
    loop would have it.
    """
    if failures:
        first_run, first_exc = failures[0]
        raise CellFailedError(
            first_run.cell.key,
            first_run.attempt + 1,
            first_exc,
            also_failed=[run.cell.key for run, _ in failures[1:]],
        ) from first_exc
    return {
        cell.key: outcomes[index]
        for index, cell in enumerate(cells)
        if index in outcomes
    }


def execute_cells(
    cells: list,
    *,
    workers: int | None = None,
    label: str = "sweep",
    policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    stats: SweepStats | None = None,
    cache=None,
    result_fingerprints: dict[str, str] | None = None,
    bind: tuple[str, int] = DEFAULT_BIND,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
) -> dict[Any, Any]:
    """Run sweep cells resiliently and return ``{cell.key: result}``.

    This is the engine behind :func:`repro.parallel.sweep.run_cells`;
    see that function for the caller-facing contract.
    """
    recorder = current_recorder()
    with span(f"sweep[{label}]") as sweep_span:
        base = getattr(sweep_span, "path", None)
        prefix = f"{base}/" if base else ""

        def note(name: str, seconds: float) -> None:
            if recorder is not None:
                recorder.record(f"{prefix}{name}", seconds)

        plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        policy = resolve_policy(policy, plan)
        stats = stats if stats is not None else SweepStats()
        if workers == 0:
            workers = default_workers()
        nworkers = min(workers or 1, len(cells))
        try:
            if nworkers >= 2:
                from repro.cluster.executor import run_fleet

                return run_fleet(
                    cells,
                    workers=nworkers,
                    label=label,
                    policy=policy,
                    fault_plan=plan,
                    stats=stats,
                    note=note,
                    cache=cache,
                    result_fingerprints=result_fingerprints,
                    bind=bind,
                    lease_seconds=lease_seconds,
                )
            stats.cells += len(cells)
            runs = cell_runs(cells, result_fingerprints)
            outcomes: dict[int, Any] = {}
            failures: list[tuple[_CellRun, BaseException]] = []

            def complete(run: _CellRun, result: Any, seconds: float) -> None:
                outcomes[run.index] = result
                stats.completed += 1
                note(f"cell[{run.cell.key}]", seconds)
                if cache is not None:
                    cache.put(run.cache_fingerprint or run.fingerprint, result, seconds)

            def fail(run: _CellRun, exc: BaseException, elapsed: float) -> bool:
                return record_attempt_failure(
                    run, exc, elapsed, policy=policy, stats=stats, note=note,
                    failures=failures, label=label,
                )

            run_serial(runs, plan, complete=complete, fail=fail)
            return fold_results(cells, outcomes, failures)
        finally:
            counter_sample(
                "sweep_resilience",
                {"retries": float(stats.retries), "completed": float(stats.completed)},
            )
