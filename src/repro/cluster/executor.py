"""``run_fleet``: run a pooled sweep on local fleet worker processes.

Every sweep with ``workers >= 2`` (:func:`repro.parallel.sweep.run_cells`)
lands here.  The function stands up a :class:`~repro.cluster.coordinator.
Coordinator`, starts one local worker process per requested worker
(the platform's default start method; the first workers are started
before the coordinator's threads, so the common path never forks a
multi-threaded process), lets any number of external ``repro-pb
worker`` processes join when ``bind`` fixes a port, and folds the
outcomes back with the same contract a serial sweep gives.

Results travel through a shared :class:`~repro.harness.cache.
MeasurementCache` directory, written by the worker that computed them.
When the run has a ``cache`` that cache doubles as the transport;
otherwise a private temporary cache directory is created for the run
and removed afterwards.

Recovery, under :class:`~repro.parallel.resilience.RetryPolicy`:

* a dead worker is respawned, up to ``max_pool_restarts`` times; when
  every worker is gone, the remaining cells run in-process, serially
  (``stats.serial_fallback``), so a pooled run never strands a plan;
* a worker whose cell overruns ``cell_timeout`` is terminated and
  replaced (the cell is charged a :class:`~repro.parallel.resilience.
  CellTimeoutError`); this replacement is not charged to the restart
  budget, because the retry budget already bounds it.

Both kinds of replacement count in ``stats.pool_restarts`` and emit
``worker_replaced``.  An interrupted run terminates its workers at once.
"""

from __future__ import annotations

import multiprocessing
import tempfile
from time import monotonic
from typing import Any, Callable

from repro.cluster.coordinator import Coordinator
from repro.cluster.worker import spawned_main
from repro.obs import events as _events
from repro.obs.log import get_logger
from repro.parallel.faults import FaultPlan
from repro.parallel.resilience import RetryPolicy, SweepStats

__all__ = ["run_fleet"]

log = get_logger("cluster.executor")


def run_fleet(
    cells: list,
    *,
    workers: int,
    label: str,
    policy: RetryPolicy,
    fault_plan: FaultPlan | None,
    stats: SweepStats,
    note: Callable[[str, float], None],
    cache,
    result_fingerprints: dict[str, str] | None,
    bind: tuple[str, int],
    lease_seconds: float,
) -> dict[Any, Any]:
    """Lease ``cells`` to ``workers`` local worker processes; return
    ``{cell.key: result}`` or raise :class:`~repro.parallel.resilience.
    CellFailedError` (see :func:`repro.parallel.sweep.run_cells`)."""
    tempdir = None
    if cache is None or not getattr(cache, "directory", None):
        from repro.harness.cache import MeasurementCache

        tempdir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        cache = MeasurementCache(tempdir.name)
    coordinator = Coordinator(
        cells,
        cache=cache,
        result_fingerprints=result_fingerprints,
        label=label,
        policy=policy,
        fault_plan=fault_plan,
        stats=stats,
        note=note,
        lease_seconds=lease_seconds,
        bind=bind,
    )
    host, port = coordinator.listen()
    context = multiprocessing.get_context()
    processes: list = []

    def spawn() -> None:
        process = context.Process(
            target=spawned_main,
            args=(host, port, cache.directory),
            name="repro-fleet-worker",
            daemon=True,
        )
        process.start()
        processes.append(process)

    def replaced(reason: str) -> None:
        stats.pool_restarts += 1
        _events.emit("worker_replaced", reason=reason, requeued=coordinator.queued())

    clean = False
    try:
        for _ in range(workers):
            spawn()
        coordinator.start()
        log.debug("%s: %d cells across %d workers", label, len(cells), workers)
        restarts_left = coordinator.policy.max_pool_restarts
        while True:
            finished = coordinator.wait(timeout=0.1)
            for pid in coordinator.take_wedged():
                for process in [p for p in processes if p.pid == pid]:
                    process.terminate()
                    process.join(timeout=1.0)
                    processes.remove(process)
                    log.warning(
                        "%s: replacing a worker wedged by a timed-out cell", label
                    )
                    replaced("wedged")
                    if not finished:
                        spawn()
            if finished:
                break
            for process in [p for p in processes if not p.is_alive()]:
                process.join()
                processes.remove(process)
                if restarts_left > 0:
                    restarts_left -= 1
                    log.warning(
                        "%s: worker died (exit %s); respawning (%d respawn(s) left)",
                        label,
                        process.exitcode,
                        restarts_left,
                    )
                    replaced("died")
                    spawn()
            if not processes and coordinator.connected_workers() == 0:
                # Every worker is gone: finish in-process.  Cells leased to
                # a worker that died unnoticed come back on a later pass.
                drained = coordinator.run_pending_serially()
                if drained:
                    log.warning(
                        "%s: no workers left; ran %d remaining cell(s) serially",
                        label,
                        drained,
                    )
                    stats.serial_fallback = True
        clean = True
        return coordinator.result()
    finally:
        if clean:
            # Workers leave on the coordinator's `shutdown` reply.
            deadline = monotonic() + 5.0
            for process in processes:
                process.join(timeout=max(0.0, deadline - monotonic()))
        coordinator.close(grace=2.0 if clean else 0.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        if tempdir is not None:
            tempdir.cleanup()
