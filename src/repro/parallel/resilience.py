"""Fault-tolerant execution engine behind :func:`repro.parallel.sweep.run_cells`.

A figure sweep is a long, embarrassingly-parallel measurement campaign;
before this module a single worker crash, poisoned result, or stuck cell
forfeited the whole run.  The engine here executes sweep cells with:

* **per-cell retry with deterministic exponential backoff** — a failed
  attempt is rescheduled up to ``max_retries`` times, sleeping
  ``backoff_base * backoff_factor**attempt`` seconds between attempts
  (jitterless: delays are a pure function of the attempt number, so a
  rerun schedules identically);
* **per-cell wall-clock timeouts** (process-pool mode) — submissions are
  throttled to the worker count so a deadline measures execution, not
  queueing; a cell past its deadline is charged a failed attempt and
  rescheduled, and if its worker cannot be preempted the pool is
  replaced so a non-terminating cell never wedges the sweep;
* **graceful pool degradation** — a ``BrokenProcessPool`` (worker died)
  restarts the pool up to ``max_pool_restarts`` times, then falls back
  to in-process serial execution for the remaining cells;
* **result recording** — an optional ``record(fingerprint, result,
  seconds)`` callback sees every completed cell as it finishes (the
  plan layer writes it into the measurement cache, so an interrupted
  run resumes by being rerun against the same cache);
* **deterministic fault injection** — an explicit
  :class:`~repro.parallel.faults.FaultPlan` (or one from the
  ``REPRO_FAULT_PLAN`` environment variable) wraps every attempt, which
  is how the chaos test suite proves all of the above correct;
* **failure attribution** — a cell that exhausts its retries raises
  :class:`CellFailedError` naming the cell key and chaining the original
  exception (with the worker traceback), *after* every other cell has
  been given the chance to finish (and be recorded).  No hung pools,
  no anonymous tracebacks.

Results are bit-identical to a fault-free serial run whenever retries
recover, because cells are deterministic functions of their arguments
and the engine folds results by submission order, never completion
order.  Retry activity is observable: spans
(``sweep[label]/retry[key]``), trace counter samples
(``sweep_resilience``), and a :class:`SweepStats` summary that lands in
the ``resilience`` section of run reports.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
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
]

log = get_logger("parallel.resilience")


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
    """A cell overran its wall-clock deadline (pool mode)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How failures are retried.

    ``max_retries`` is the number of *re*-attempts (total attempts =
    ``max_retries + 1``).  Backoff is deterministic and jitterless:
    ``backoff_base * backoff_factor**attempt`` seconds after the
    ``attempt``-th failure (0-based); the default base of 0 disables
    sleeping entirely, which is right for in-process simulation cells.
    ``cell_timeout`` (seconds) is enforced in process-pool mode only —
    an in-process cell cannot be preempted.  A timed-out cell whose
    worker will not stop costs a pool replacement (its remaining healthy
    workers are terminated and their cells requeued), so set it well
    above the slowest legitimate cell.
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
    final report shows one total.
    """

    policy: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    stats: SweepStats | None = None


# ----------------------------------------------------------------------
# worker-side attempt (module-level: must pickle by reference)
# ----------------------------------------------------------------------
def _attempt_cell(cell, attempt: int, plan: FaultPlan | None, fingerprint: str):
    """Run one attempt of one cell, honouring the fault plan."""
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

    The single source of truth for failure accounting, shared by the
    in-process engine (:class:`_Engine`) and the cluster coordinator
    (:mod:`repro.cluster.coordinator`): emits the ``cell_faulted`` /
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
        # Backoff is recorded, never slept here: in pool mode this runs
        # on the dispatcher thread, which must keep servicing the other
        # cells' completions and deadlines while one cell backs off.
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
    """Mutable scheduling state of one cell across its attempts."""

    __slots__ = ("index", "cell", "fingerprint", "attempt", "deadline", "not_before")

    def __init__(self, index: int, cell, fingerprint: str) -> None:
        self.index = index
        self.cell = cell
        self.fingerprint = fingerprint
        self.attempt = 0
        self.deadline: float | None = None
        self.not_before = 0.0  # monotonic() before which a retry must not start


class _FifoQueue:
    """Ready queue in submission order; a retried run rejoins at the back."""

    def __init__(self, runs: list[_CellRun]) -> None:
        self._queue: deque[_CellRun] = deque(runs)

    def __len__(self) -> int:
        return len(self._queue)

    def pop_eligible(self, now: float) -> _CellRun | None:
        """Next run whose backoff has expired, or ``None``."""
        for _ in range(len(self._queue)):
            run = self._queue.popleft()
            if run.not_before <= now:
                return run
            self._queue.append(run)
        return None

    def push(self, run: _CellRun) -> None:
        self._queue.append(run)

    def push_front(self, run: _CellRun) -> None:
        self._queue.appendleft(run)

    def backoff_times(self) -> list[float]:
        return [run.not_before for run in self._queue if run.not_before > 0.0]

    def min_not_before(self) -> float:
        return min(run.not_before for run in self._queue)

    def drain(self) -> list[_CellRun]:
        runs = list(self._queue)
        self._queue.clear()
        return runs


class _Engine:
    """One resilient sweep execution (single use)."""

    def __init__(
        self,
        cells: list,
        *,
        workers: int | None,
        label: str,
        policy: RetryPolicy | None,
        fault_plan: FaultPlan | None,
        record: Callable[[str, Any, float], None] | None,
        stats: SweepStats | None,
        note: Callable[[str, float], None],
    ) -> None:
        self.cells = cells
        self.label = label
        self.plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.policy = resolve_policy(policy, self.plan)
        self.record = record
        self.stats = stats if stats is not None else SweepStats()
        self.note = note
        if workers == 0:
            workers = default_workers()
        self.workers = workers or 1
        self.outcomes: dict[int, Any] = {}
        self.failures: list[tuple[_CellRun, BaseException]] = []

    # ------------------------------------------------------------------
    def run(self) -> dict[Any, Any]:
        self.stats.cells += len(self.cells)
        runs = [
            _CellRun(
                index, cell, cell_fingerprint(cell.fn, cell.key, cell.args, cell.kwargs)
            )
            for index, cell in enumerate(self.cells)
        ]

        nworkers = min(self.workers, len(runs)) if runs else 1
        if nworkers <= 1:
            self._run_serial(runs)
        else:
            self._run_pool(runs, nworkers)

        # Workers enqueue an attempt's events before its future resolves
        # (a manager-queue put is a synchronous RPC), so one drain here
        # leaves the bus complete and causally ordered for this sweep.
        bus = _events.current_bus()
        if bus is not None:
            bus.pump()

        counter_sample(
            "sweep_resilience",
            {
                "retries": float(self.stats.retries),
                "completed": float(self.stats.completed),
            },
        )
        if self.failures:
            first_run, first_exc = self.failures[0]
            raise CellFailedError(
                first_run.cell.key,
                first_run.attempt + 1,
                first_exc,
                also_failed=[run.cell.key for run, _ in self.failures[1:]],
            ) from first_exc
        # Submission order, never completion order: with duplicate keys the
        # last-submitted cell wins, exactly as a serial loop would have it.
        return {
            cell.key: self.outcomes[index]
            for index, cell in enumerate(self.cells)
            if index in self.outcomes
        }

    # ------------------------------------------------------------------
    def _complete(self, run: _CellRun, result: Any, seconds: float) -> None:
        self.outcomes[run.index] = result
        self.stats.completed += 1
        self.note(f"cell[{run.cell.key}]", seconds)
        if self.record is not None:
            self.record(run.fingerprint, result, seconds)

    def _record_failure(self, run: _CellRun, exc: BaseException, elapsed: float) -> bool:
        """Count one failed attempt; return True if the cell will retry."""
        return record_attempt_failure(
            run,
            exc,
            elapsed,
            policy=self.policy,
            stats=self.stats,
            note=self.note,
            failures=self.failures,
            label=self.label,
        )

    # ------------------------------------------------------------------
    def _run_serial(self, runs: list[_CellRun]) -> None:
        for run in runs:
            while True:
                pause = run.not_before - monotonic()
                if pause > 0.0:
                    time.sleep(pause)
                start = perf_counter()
                try:
                    result, seconds = _attempt_cell(
                        run.cell, run.attempt, self.plan, run.fingerprint
                    )
                    if is_corrupt(result):
                        raise CorruptResultError(
                            f"cell [{run.cell.key!r}] returned a corrupt result"
                        )
                except Exception as exc:  # noqa: BLE001 — every cell error retries
                    if self._record_failure(run, exc, perf_counter() - start):
                        continue
                    break
                self._complete(run, result, seconds)
                break

    # ------------------------------------------------------------------
    def _new_pool(self, nworkers: int) -> ProcessPoolExecutor:
        """A worker pool, wired to the event bus when one is collecting."""
        bus = _events.current_bus()
        if bus is not None:
            initializer, initargs = bus.worker_initializer()
            return ProcessPoolExecutor(
                max_workers=nworkers, initializer=initializer, initargs=initargs
            )
        return ProcessPoolExecutor(max_workers=nworkers)

    def _run_pool(self, runs: list[_CellRun], nworkers: int) -> None:
        log.debug(
            "%s: %d cells across %d workers", self.label, len(runs), nworkers
        )
        bus = _events.current_bus()
        pool = self._new_pool(nworkers)
        restarts_left = self.policy.max_pool_restarts
        ready = _FifoQueue(runs)
        pending: dict[Future, tuple[_CellRun, float]] = {}
        try:
            while len(ready) or pending:
                broken = False

                # Throttled submission: at most one in-flight future per
                # worker, so a submitted cell starts executing immediately
                # and its deadline measures execution, not time spent queued
                # behind other cells.  Runs still inside their backoff window
                # are held back until ``not_before`` passes.
                now = monotonic()
                while len(ready) and len(pending) < nworkers:
                    run = ready.pop_eligible(now)
                    if run is None:  # everything left is backing off
                        break
                    try:
                        future = pool.submit(
                            _attempt_cell,
                            run.cell,
                            run.attempt,
                            self.plan,
                            run.fingerprint,
                        )
                    except BrokenProcessPool:
                        # The pool died between completions; route this the
                        # same way as a broken in-flight future.
                        ready.push_front(run)
                        broken = True
                        break
                    started = monotonic()
                    if self.policy.cell_timeout is not None:
                        run.deadline = started + self.policy.cell_timeout
                    pending[future] = (run, started)

                if not broken and not pending:
                    # Every remaining cell is backing off; sleep until the
                    # earliest becomes eligible.
                    wake = ready.min_not_before()
                    time.sleep(max(0.0, wake - monotonic()))
                    continue

                if not broken:
                    # Wake for the earliest cell deadline, or — when there is
                    # spare worker capacity — the earliest backoff expiry.
                    wake_times = [
                        run.deadline
                        for run, _ in pending.values()
                        if run.deadline is not None
                    ]
                    if len(pending) < nworkers:
                        wake_times += ready.backoff_times()
                    wait_timeout = (
                        max(0.0, min(wake_times) - monotonic()) if wake_times else None
                    )
                    if bus is not None:
                        # Wake periodically so queued worker events reach
                        # subscribers (the live progress renderer) while
                        # long cells are still running.
                        cap = bus.pump_interval
                        wait_timeout = (
                            cap if wait_timeout is None else min(wait_timeout, cap)
                        )
                    done, _ = wait(
                        set(pending), timeout=wait_timeout, return_when=FIRST_COMPLETED
                    )
                    if bus is not None:
                        # Drain *before* reacting to completions: a worker's
                        # events are enqueued before its future resolves, so
                        # this keeps arrival order causal per cell (started
                        # precedes the parent's faulted/retried verdict).
                        bus.pump()

                    for future in done:
                        run, started = pending.pop(future)
                        elapsed = monotonic() - started
                        exc = future.exception()
                        if isinstance(exc, BrokenProcessPool):
                            # Worker death kills every in-flight future;
                            # requeue this run and let the pool-level
                            # handling below deal with the rest.
                            ready.push_front(run)
                            broken = True
                            continue
                        if exc is not None:
                            if self._record_failure(run, exc, elapsed):
                                ready.push(run)
                            continue
                        result, seconds = future.result()
                        if is_corrupt(result):
                            corrupt = CorruptResultError(
                                f"cell [{run.cell.key!r}] returned a corrupt result"
                            )
                            if self._record_failure(run, corrupt, elapsed):
                                ready.push(run)
                            continue
                        self._complete(run, result, seconds)

                if broken:
                    # Move every other in-flight run back to the queue; their
                    # futures are dead with the pool.
                    for run, _ in pending.values():
                        ready.push(run)
                    pending.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    self.stats.pool_restarts += 1
                    if bus is not None:
                        # The manager outlives the pool: events the dead
                        # workers managed to enqueue are still collectable.
                        bus.pump()
                    if restarts_left > 0:
                        restarts_left -= 1
                        log.warning(
                            "%s: worker pool died; restarting (%d restart(s) left)",
                            self.label,
                            restarts_left,
                        )
                        _events.emit(
                            "worker_replaced",
                            reason="broken_pool",
                            requeued=len(ready),
                        )
                        pool = self._new_pool(nworkers)
                        continue
                    log.warning(
                        "%s: worker pool died repeatedly; degrading to "
                        "in-process serial execution for %d remaining cell(s)",
                        self.label,
                        len(ready),
                    )
                    self.stats.serial_fallback = True
                    self._run_serial(ready.drain())
                    return

                # Deadline sweep: charge overrun cells a failed attempt and
                # reschedule.  A future that cannot be cancelled is being
                # executed by a worker we have no way to preempt — the pool
                # must be replaced to reclaim that slot, or a single hung
                # cell would wedge the sweep (and the final shutdown).
                hung = False
                if self.policy.cell_timeout is not None:
                    now = monotonic()
                    for future, (run, started) in list(pending.items()):
                        if run.deadline is not None and now >= run.deadline:
                            pending.pop(future)
                            timeout_exc = CellTimeoutError(
                                f"cell [{run.cell.key!r}] exceeded its "
                                f"{self.policy.cell_timeout:g}s deadline"
                            )
                            if self._record_failure(run, timeout_exc, now - started):
                                ready.push(run)
                            if not future.cancel():
                                hung = True
                if hung:
                    # Healthy in-flight runs die with the abandoned pool;
                    # requeue them without charging an attempt (mirroring
                    # the broken-pool path).  Replacement is not counted
                    # against max_pool_restarts: each replacement charges
                    # the overrun cell an attempt, so retries bound it.
                    for run, _ in pending.values():
                        ready.push(run)
                    pending.clear()
                    if bus is not None:
                        # Collect everything the wedged pool's workers
                        # enqueued before they are terminated — nothing
                        # already sent is lost with the replacement.
                        bus.pump()
                    self._abandon_pool(pool)
                    self.stats.pool_restarts += 1
                    log.warning(
                        "%s: replacing worker pool wedged by a timed-out cell",
                        self.label,
                    )
                    _events.emit(
                        "worker_replaced", reason="wedged", requeued=len(ready)
                    )
                    pool = self._new_pool(nworkers)
        finally:
            # Never wait=True: if anything above raised while a worker was
            # stuck on a cell, joining it would hang the whole engine.
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Free a pool wedged by a non-terminating cell without joining it.

        ``shutdown(wait=True)`` would block on the hung worker forever, so
        the pool is shut down unjoined and its worker processes terminated
        best-effort.  ``_processes`` is CPython's internal worker map; if a
        future version hides it the processes leak until their cells return,
        which is still better than a hung sweep.
        """
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 — already-dead workers are fine
                pass


def execute_cells(
    cells: list,
    *,
    workers: int | None = None,
    label: str = "sweep",
    policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    record: Callable[[str, Any, float], None] | None = None,
    stats: SweepStats | None = None,
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

        engine = _Engine(
            cells,
            workers=workers,
            label=label,
            policy=policy,
            fault_plan=fault_plan,
            record=record,
            stats=stats,
            note=note,
        )
        return engine.run()
