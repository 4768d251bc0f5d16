"""End-to-end pooled-run tests: real local and external worker processes
leased by the coordinator, shared-cache data plane, and degradation to
serial."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import RemoteCellError
from repro.harness.cache import MeasurementCache
from repro.obs.events import EventBus, collecting
from repro.parallel import (
    CellFailedError,
    RetryPolicy,
    SweepCell,
    SweepStats,
    run_cells,
)
from repro.plan import Cell, ExperimentSpec, compile_plan, execute_plan
from repro.plan.executors import ExecutionRequest, LocalExecutor

from tests.cluster.cellfns import (
    boom,
    die_in_worker,
    graph_edges,
    nap,
    raise_unpicklable,
    square,
    square_when,
)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))


def _cells(n=12):
    return [SweepCell(key=i, fn=square, args=(i,)) for i in range(n)]


def test_empty_request_is_a_noop():
    assert LocalExecutor().run(ExecutionRequest(cells=[], workers=2)) == {}


def test_matches_serial_run_cells(tmp_path):
    serial = run_cells(_cells(), workers=1)
    stats = SweepStats()
    pooled = run_cells(
        _cells(), workers=2, label="e2e", stats=stats,
        cache=MeasurementCache(str(tmp_path / "cache")),
    )
    assert pooled == serial
    assert stats.completed == len(serial)
    assert not stats.serial_fallback


def test_graphs_ship_once_per_worker(tmp_path):
    from repro.graphs import build_csr, uniform_random_graph

    graph = build_csr(uniform_random_graph(512, 4, seed=3))
    cells = [
        SweepCell(key=i, fn=graph_edges, args=(graph, i)) for i in range(10)
    ]
    bus = EventBus()
    with collecting(bus):
        result = run_cells(
            cells, workers=2, label="graphs",
            cache=MeasurementCache(str(tmp_path / "cache")),
        )
    assert result == {i: int(graph.num_edges) + i for i in range(10)}
    cluster = bus.fleet_summary()["cluster"]
    assert cluster["leases"]["completed"] == 10
    # Dedup: at most one shipment per worker, never one per cell.
    assert 1 <= cluster["graphs_shipped"] <= 2


def test_fleet_death_falls_back_to_serial(tmp_path):
    """Workers that die on sight must not strand the plan."""
    cells = [SweepCell(key=i, fn=die_in_worker, args=(i,)) for i in range(6)]
    stats = SweepStats()
    result = run_cells(
        cells, workers=2, label="doomed", stats=stats,
        policy=RetryPolicy(max_retries=0, max_pool_restarts=0),
        cache=MeasurementCache(str(tmp_path / "cache")),
    )
    assert result == {i: i * i for i in range(6)}
    assert stats.serial_fallback


def test_parent_never_writes_the_shared_cache(tmp_path, monkeypatch):
    """Workers write each result once; the parent only reads it back."""
    puts = []
    put = MeasurementCache.put

    def counting_put(cache, fingerprint, result, seconds):
        puts.append(fingerprint)
        put(cache, fingerprint, result, seconds)

    # Worker processes append to their own copies of ``puts``, so only
    # the parent's writes are counted.
    monkeypatch.setattr(MeasurementCache, "put", counting_put)
    cache = MeasurementCache(str(tmp_path / "cache"))
    spec = ExperimentSpec(
        name="squares",
        cells={i: Cell(fn=square, args=(i,)) for i in range(6)},
        build=dict,
    )
    plan = compile_plan([spec])
    results = execute_plan(plan, workers=2, cache=cache)
    assert results.artifact("squares") == {i: i * i for i in range(6)}
    assert puts == []
    assert len(cache) == 6


def test_transport_cache_is_private_and_cleaned_up():
    """No --cache configured: results still travel, via a temp dir."""
    result = run_cells(_cells(4), workers=2, label="nocache")
    assert result == {i: i * i for i in range(4)}


def test_cell_exceptions_cross_back_with_the_worker_traceback():
    """A worker's exception arrives as itself, its traceback attached; one
    that cannot be pickled arrives as RemoteCellError naming it."""
    cells = [
        SweepCell(key="ok", fn=square, args=(3,)),
        SweepCell(key="bad", fn=boom, args=(7,)),
    ]
    with pytest.raises(CellFailedError) as excinfo:
        run_cells(cells, workers=2)
    cause = excinfo.value.__cause__
    assert type(cause) is RuntimeError and str(cause) == "cell 7 failed"
    if sys.version_info >= (3, 11):  # exception notes
        notes = "\n".join(cause.__notes__)
        assert "worker traceback" in notes and "in boom" in notes

    cells[1] = SweepCell(key="bad", fn=raise_unpicklable, args=(7,))
    with pytest.raises(CellFailedError) as excinfo:
        run_cells(cells, workers=2)
    cause = excinfo.value.__cause__
    assert isinstance(cause, RemoteCellError)
    assert str(cause) == "Unpicklable: cell 7 cannot cross"
    assert "raise_unpicklable" in cause.traceback_text


def test_replaced_wedged_worker_is_reported_once():
    """A worker terminated for overrunning a cell deadline is reported by
    ``worker_replaced`` alone, never also as ``worker_lost``."""
    cells = [
        SweepCell(key="quick", fn=square, args=(2,)),
        SweepCell(key="stuck", fn=nap, args=(60.0,)),
    ]
    bus = EventBus()
    started = time.monotonic()
    with collecting(bus), pytest.raises(CellFailedError):
        run_cells(
            cells, workers=2, policy=RetryPolicy(max_retries=1, cell_timeout=0.3)
        )
    assert time.monotonic() - started < 30.0
    summary = bus.fleet_summary()
    assert summary["workers"]["replaced"] == 2
    assert summary["cluster"]["workers_lost"] == 0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_external_worker_joins_a_bound_pooled_run(tmp_path):
    """``repro-pb worker --connect`` joins a ``bind``-fixed pooled run,
    leases cells like the local workers, and exits 0 on ``shutdown``."""
    gate = str(tmp_path / "open")
    cells = [SweepCell(key=i, fn=square_when, args=(gate, i)) for i in range(24)]
    port = _free_port()
    bus = EventBus()
    outcome: dict = {}

    def pooled() -> None:
        try:
            outcome["result"] = run_cells(
                cells, workers=2, label="external",
                bind=("127.0.0.1", port),
                cache=MeasurementCache(str(tmp_path / "cache")),
            )
        except Exception as exc:  # noqa: BLE001 — asserted on below
            outcome["error"] = exc

    def joined() -> int:
        return sum(event.kind == "worker_joined" for event in bus.events())

    worker = None
    with collecting(bus):
        run = threading.Thread(target=pooled, daemon=True)
        run.start()
        try:
            deadline = time.monotonic() + 30.0
            while True:  # the port accepts once the coordinator listens
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                    break
                except OSError:
                    assert time.monotonic() < deadline, "coordinator never listened"
                    time.sleep(0.02)
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--connect", f"127.0.0.1:{port}", "--name", "external"],
                cwd=ROOT,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                    [os.path.join(ROOT, "src"), ROOT])),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            # The cells wait at the gate until all three workers joined.
            deadline = time.monotonic() + 30.0
            while joined() < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            open(gate, "w").close()
            run.join(timeout=60.0)
            if worker is not None:
                try:
                    worker_exit = worker.wait(timeout=30.0)
                finally:
                    if worker.poll() is None:
                        worker.kill()
                        worker.wait()
    assert not run.is_alive()
    assert "error" not in outcome, outcome.get("error")
    assert outcome["result"] == run_cells(cells, workers=1)
    assert bus.fleet_summary()["cluster"]["workers_joined"] == 3
    assert worker_exit == 0
