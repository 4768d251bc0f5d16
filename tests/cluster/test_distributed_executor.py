"""End-to-end ``DistributedExecutor`` tests: real spawned worker
processes, shared-cache data plane, and degradation to serial."""

from __future__ import annotations

import pytest

from repro.cluster import DistributedExecutor
from repro.harness.cache import MeasurementCache
from repro.obs.events import EventBus, collecting
from repro.parallel import SweepCell, SweepStats, run_cells
from repro.plan import Cell, ExperimentSpec, compile_plan, execute_plan
from repro.plan.executors import ExecutionRequest, make_executor

from tests.cluster.cellfns import die_in_worker, graph_edges, square


def _cells(n=12):
    return [SweepCell(key=i, fn=square, args=(i,)) for i in range(n)]


def test_registry_builds_distributed_executor():
    executor = make_executor(
        "distributed", spawn_workers=1, lease_seconds=5.0
    )
    assert isinstance(executor, DistributedExecutor)
    assert executor.spawn_workers == 1


def test_empty_request_is_a_noop():
    executor = DistributedExecutor(spawn_workers=1)
    assert executor.run(ExecutionRequest(cells=[])) == {}


def test_matches_serial_run_cells(tmp_path):
    serial = run_cells(_cells(), workers=1)
    stats = SweepStats()
    executor = DistributedExecutor(spawn_workers=2, lease_seconds=30.0)
    request = ExecutionRequest(
        cells=_cells(), label="e2e", stats=stats,
        cache=MeasurementCache(str(tmp_path / "cache")),
    )
    assert executor.run(request) == serial
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
        executor = DistributedExecutor(spawn_workers=2)
        result = executor.run(
            ExecutionRequest(
                cells=cells, label="graphs",
                cache=MeasurementCache(str(tmp_path / "cache")),
            )
        )
    assert result == {i: int(graph.num_edges) + i for i in range(10)}
    bus.pump()
    cluster = bus.fleet_summary()["cluster"]
    assert cluster["leases"]["completed"] == 10
    # Dedup: at most one shipment per worker, never one per cell.
    assert 1 <= cluster["graphs_shipped"] <= 2
    bus.close()


def test_fleet_death_falls_back_to_serial(tmp_path):
    """Workers that die on sight must not strand the plan."""
    cells = [SweepCell(key=i, fn=die_in_worker, args=(i,)) for i in range(6)]
    stats = SweepStats()
    executor = DistributedExecutor(
        spawn_workers=1, max_respawns=0, lease_seconds=30.0
    )
    result = executor.run(
        ExecutionRequest(
            cells=cells, label="doomed", stats=stats,
            cache=MeasurementCache(str(tmp_path / "cache")),
        )
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

    # Spawned workers start a fresh interpreter, so only the parent's
    # writes are counted.
    monkeypatch.setattr(MeasurementCache, "put", counting_put)
    cache = MeasurementCache(str(tmp_path / "cache"))
    spec = ExperimentSpec(
        name="squares",
        cells={i: Cell(fn=square, args=(i,)) for i in range(6)},
        build=dict,
    )
    plan = compile_plan([spec])
    results = execute_plan(
        plan, cache=cache, executor=DistributedExecutor(spawn_workers=1)
    )
    assert results.artifact("squares") == {i: i * i for i in range(6)}
    assert puts == []
    assert len(cache) == 6


def test_transport_cache_is_private_and_cleaned_up():
    """No --cache configured: results still travel, via a temp dir."""
    executor = DistributedExecutor(spawn_workers=1)
    result = executor.run(ExecutionRequest(cells=_cells(4), label="nocache"))
    assert result == {i: i * i for i in range(4)}


def test_rejects_negative_spawn_workers():
    with pytest.raises(ValueError):
        DistributedExecutor(spawn_workers=-1)
