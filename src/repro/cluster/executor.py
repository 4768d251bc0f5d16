"""``DistributedExecutor``: run a plan's cells on a socket worker fleet.

The executor is the bridge between the plan layer's
:class:`~repro.plan.executors.Executor` seam and the cluster subsystem:
it stands up a :class:`~repro.cluster.coordinator.Coordinator`,
optionally spawns local worker processes (real OS processes via the
``spawn`` start method, so chaos tests can ``SIGKILL`` them exactly
like a remote host dying), lets any number of external ``repro-pb
worker`` processes join over TCP, and folds the outcomes back with the
same contract :func:`repro.parallel.sweep.run_cells` gives.

Results travel through a shared :class:`~repro.harness.cache.
MeasurementCache` directory.  When the plan already runs with
``--cache`` that cache doubles as the transport (workers warm it
directly); otherwise a private temporary cache directory is created for
the run and removed afterwards.

Degradation mirrors the pool engine: a dead spawned worker is respawned
up to ``max_respawns`` times; if the whole fleet is gone and nobody
external is connected, the remaining cells fall back to in-process
serial execution (``stats.serial_fallback``), so a distributed run
never strands a plan.
"""

from __future__ import annotations

import tempfile
from time import monotonic
from typing import Any

from repro.cluster.coordinator import Coordinator
from repro.obs.log import get_logger
from repro.obs.spans import current_recorder, span
from repro.obs.trace import counter_sample
from repro.parallel.resilience import SweepStats
from repro.plan.executors import ExecutionRequest, Executor

__all__ = ["DistributedExecutor"]

log = get_logger("cluster.executor")


class DistributedExecutor(Executor):
    """Lease cells to a worker fleet instead of a local process pool.

    ``spawn_workers`` local worker processes are started against the
    coordinator (0 = none; rely on external ``repro-pb worker``
    processes dialing ``bind``).  ``bind`` is the coordinator's listen
    address — loopback by default; bind wider only on a network that
    already shares the cache filesystem (see ``docs/distributed.md``).
    ``lease_seconds`` bounds how long a silent worker may hold a cell
    before it is charged a timeout and re-leased.
    """

    name = "distributed"

    def __init__(
        self,
        *,
        spawn_workers: int = 2,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        lease_seconds: float = 30.0,
        max_respawns: int = 1,
    ) -> None:
        if spawn_workers < 0:
            raise ValueError("spawn_workers must be >= 0")
        self.spawn_workers = spawn_workers
        self.bind = bind
        self.lease_seconds = lease_seconds
        self.max_respawns = max_respawns

    # ------------------------------------------------------------------
    def run(self, request: ExecutionRequest) -> dict[Any, Any]:
        if not request.cells:
            return {}
        recorder = current_recorder()
        with span(f"cluster[{request.label}]") as cluster_span:
            base = getattr(cluster_span, "path", None)
            prefix = f"{base}/" if base else ""

            def note(name: str, seconds: float) -> None:
                if recorder is not None:
                    recorder.record(f"{prefix}{name}", seconds)

            return self._run(request, note)

    # ------------------------------------------------------------------
    def _run(self, request: ExecutionRequest, note) -> dict[Any, Any]:
        import multiprocessing

        from repro.cluster.worker import spawned_main

        stats = request.stats if request.stats is not None else SweepStats()
        tempdir = None
        cache = request.cache
        if cache is None or not getattr(cache, "directory", None):
            from repro.harness.cache import MeasurementCache

            tempdir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            cache = MeasurementCache(tempdir.name)
            log.debug(
                "%s: no shared cache configured; using transport cache %s",
                request.label,
                tempdir.name,
            )

        expected = self.spawn_workers or max(request.workers or 1, 1)
        coordinator = Coordinator(
            request.cells,
            cache=cache,
            result_fingerprints=request.result_fingerprints,
            label=request.label,
            policy=request.policy,
            fault_plan=request.fault_plan,
            stats=stats,
            note=note,
            expected_workers=expected,
            lease_seconds=self.lease_seconds,
            bind=self.bind,
        )
        host, port = coordinator.start()
        context = multiprocessing.get_context("spawn")
        processes: list = []
        setup_started = monotonic()
        for _ in range(self.spawn_workers):
            processes.append(self._spawn(context, spawned_main, host, port, cache))
        if self.spawn_workers:
            log.info(
                "%s: spawned %d fleet worker(s) against %s:%d",
                request.label,
                self.spawn_workers,
                host,
                port,
            )
        else:
            log.info(
                "%s: waiting for external workers on %s:%d (repro-pb worker "
                "--connect %s:%d)",
                request.label,
                host,
                port,
                host,
                port,
            )

        respawns_left = self.max_respawns
        warned_no_workers = False
        try:
            while not coordinator.wait(timeout=0.1):
                for index, process in enumerate(processes):
                    if process is None or process.is_alive():
                        continue
                    process.join()
                    processes[index] = None
                    if coordinator.done():
                        continue
                    if respawns_left > 0:
                        respawns_left -= 1
                        log.warning(
                            "%s: fleet worker died (exit %s); respawning "
                            "(%d respawn(s) left)",
                            request.label,
                            process.exitcode,
                            respawns_left,
                        )
                        processes[index] = self._spawn(
                            context, spawned_main, host, port, cache
                        )
                alive = sum(1 for process in processes if process is not None)
                if (
                    self.spawn_workers
                    and not alive
                    and coordinator.connected_workers() == 0
                    and not coordinator.done()
                ):
                    self._serial_fallback(coordinator, request, stats)
                if (
                    not self.spawn_workers
                    and not warned_no_workers
                    and coordinator.connected_workers() == 0
                    and monotonic() - setup_started > 10.0
                ):
                    warned_no_workers = True
                    log.warning(
                        "%s: still no workers after 10s; attach some with "
                        "`repro-pb worker --connect %s:%d`",
                        request.label,
                        host,
                        port,
                    )
            counter_sample(
                "sweep_resilience",
                {
                    "retries": float(stats.retries),
                    "completed": float(stats.completed),
                },
            )
            return coordinator.result()
        finally:
            # Give spawned workers the chance to drain a clean `shutdown`
            # reply before their connections are torn down.
            for process in processes:
                if process is not None:
                    process.join(timeout=5.0)
            coordinator.close()
            for process in processes:
                if process is None:
                    continue
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
            if tempdir is not None:
                tempdir.cleanup()

    @staticmethod
    def _spawn(context, target, host: str, port: int, cache):
        process = context.Process(
            target=target,
            args=(host, port, cache.directory),
            name="repro-fleet-worker",
            daemon=True,
        )
        process.start()
        return process

    @staticmethod
    def _serial_fallback(
        coordinator: Coordinator, request: ExecutionRequest, stats: SweepStats
    ) -> None:
        """The whole fleet is gone: run what is left in-process.

        Mirrors the pool engine's serial degradation — the run completes
        (slower) rather than stranding the plan.  Cells still leased to
        vanished-but-undetected workers are recovered by lease expiry
        and picked up on the next fallback pass.
        """
        from repro.parallel.sweep import run_cells

        cells = coordinator.drain_pending()
        if not cells:
            return
        log.warning(
            "%s: fleet exhausted; executing %d remaining cell(s) serially "
            "in-process",
            request.label,
            len(cells),
        )
        stats.serial_fallback = True
        # The coordinator already counted these cells; the serial engine
        # will count them again.
        stats.cells -= len(cells)
        outcomes = run_cells(
            cells,
            workers=1,
            label=request.label,
            policy=request.policy,
            fault_plan=request.fault_plan,
            record=request.record,
            stats=stats,
        )
        coordinator.absorb(outcomes)
