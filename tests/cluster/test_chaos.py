"""Chaos test: SIGKILL a real worker process mid-run.

A killed worker looks exactly like a host dying — no goodbye, no EOF
flush discipline, leases simply stop being heartbeat-renewed or the
socket drops.  The coordinator must recover every leased cell and the
final result must be complete and correct, with nothing double-counted.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.cluster.coordinator import Coordinator
from repro.cluster.worker import spawned_main
from repro.harness.cache import MeasurementCache
from repro.obs.events import EventBus, collecting
from repro.parallel import SweepCell, SweepStats

from tests.cluster.cellfns import slow_square

N_CELLS = 30


def _spawn(host, port, cache_dir):
    context = multiprocessing.get_context("spawn")
    process = context.Process(
        target=spawned_main, args=(host, port, cache_dir), daemon=True
    )
    process.start()
    return process


def test_sigkilled_worker_loses_no_cells(tmp_path):
    cells = [
        SweepCell(key=i, fn=slow_square, args=(i,)) for i in range(N_CELLS)
    ]
    cache = MeasurementCache(str(tmp_path / "cache"))
    stats = SweepStats()
    bus = EventBus()
    with collecting(bus):
        coordinator = Coordinator(
            cells,
            cache=cache,
            stats=stats,
            lease_seconds=5.0,
        )
        host, port = coordinator.start()
        victim = _spawn(host, port, cache.directory)
        survivor = _spawn(host, port, cache.directory)
        try:
            # Let the victim join and take leases before the kill.
            deadline = time.monotonic() + 20.0
            while stats.completed < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert stats.completed >= 3, "fleet never started completing"
            os.kill(victim.pid, signal.SIGKILL)
            assert coordinator.wait(timeout=60.0)
            result = coordinator.result()
        finally:
            for process in (victim, survivor):
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            coordinator.close()

    assert result == {i: i * i for i in range(N_CELLS)}
    # Every cell completed exactly once from the coordinator's view:
    # kills surface as uncharged requeues (EOF) or charged expiries,
    # never as lost or double-counted results.
    assert stats.completed == N_CELLS
    assert victim.exitcode == -signal.SIGKILL

    kinds = [event.kind for event in bus.events()]
    assert kinds.count("worker_joined") == 2
    assert "worker_lost" in kinds or "lease_expired" in kinds
    cluster = bus.fleet_summary()["cluster"]
    assert cluster["leases"]["completed"] == N_CELLS
