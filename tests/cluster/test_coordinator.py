"""Coordinator tests: leases, retries, expiry, and crash recovery.

Workers here are in-process — either the real :func:`run_worker` loop on
a thread (cells are cheap, so thread workers are exact and fast) or a
hand-rolled protocol client for the paths a well-behaved worker never
takes (going silent, dropping mid-lease, double-completing).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster.coordinator import Coordinator
from repro.cluster.wire import PROTOCOL_VERSION, Connection
from repro.cluster.worker import run_worker
from repro.harness.cache import MeasurementCache
from repro.obs.events import EventBus, collecting
from repro.parallel import (
    CellFailedError,
    FaultPlan,
    RetryPolicy,
    SweepCell,
    SweepStats,
    run_cells,
)

from tests.cluster.cellfns import square


def _cells(n=8):
    return [SweepCell(key=i, fn=square, args=(i,)) for i in range(n)]


EXPECTED = {i: i * i for i in range(8)}


def _worker_thread(host, port, **kwargs):
    thread = threading.Thread(
        target=run_worker, args=(host, port), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


class _Client:
    """A hand-rolled worker for misbehaving-worker tests."""

    def __init__(self, host, port, name="rogue"):
        self.conn = Connection.connect(host, port, timeout=5.0)
        self.conn.send(
            {"kind": "hello", "protocol": PROTOCOL_VERSION, "worker": name}
        )
        self.welcome = self.conn.recv()
        assert self.welcome["kind"] == "welcome"

    def lease(self):
        while True:
            self.conn.send({"kind": "lease_request"})
            reply = self.conn.recv()
            if reply["kind"] == "lease":
                return reply
            assert reply["kind"] == "idle"
            time.sleep(reply.get("retry_after", 0.02))

    def close(self):
        self.conn.close()


def _coordinator(tmp_path, cells, **kwargs):
    cache = MeasurementCache(str(tmp_path / "cache"))
    kwargs.setdefault("stats", SweepStats())
    return Coordinator(cells, cache=cache, **kwargs), cache


def test_threaded_worker_completes_everything(tmp_path):
    bus = EventBus()
    with collecting(bus):
        coordinator, _ = _coordinator(tmp_path, _cells(), expected_workers=2)
        host, port = coordinator.start()
        thread = _worker_thread(host, port)
        assert coordinator.wait(timeout=30.0)
        assert coordinator.result() == EXPECTED
        coordinator.close()
        thread.join(timeout=5.0)
    bus.pump()
    kinds = [event.kind for event in bus.events()]
    assert kinds.count("worker_joined") == 1
    assert kinds.count("lease_granted") == len(EXPECTED)
    assert kinds.count("lease_completed") == len(EXPECTED)
    assert coordinator.stats.completed == len(EXPECTED)
    cluster = bus.fleet_summary()["cluster"]
    assert cluster["leases"] == {
        "granted": len(EXPECTED), "expired": 0, "completed": len(EXPECTED)
    }
    bus.close()


def test_matches_serial_run_cells(tmp_path):
    serial = run_cells(_cells(), workers=1)
    coordinator, _ = _coordinator(tmp_path, _cells())
    host, port = coordinator.start()
    thread = _worker_thread(host, port)
    assert coordinator.wait(timeout=30.0)
    assert coordinator.result() == serial
    coordinator.close()
    thread.join(timeout=5.0)


def test_injected_faults_recovered_identically(tmp_path):
    """A covered fault plan must not change any result (engine parity)."""
    plan = FaultPlan.from_string("seed=7,rate=0.4,kinds=crash,max=2")
    stats = SweepStats()
    coordinator, _ = _coordinator(
        tmp_path,
        _cells(),
        fault_plan=plan,
        policy=RetryPolicy.covering(plan, backoff_base=0.01),
        stats=stats,
    )
    host, port = coordinator.start()
    # Workers receive the plan in the welcome and inject deterministically.
    thread = _worker_thread(host, port)
    assert coordinator.wait(timeout=60.0)
    assert coordinator.result() == EXPECTED
    assert stats.injected_faults > 0
    assert stats.retries == stats.injected_faults
    coordinator.close()
    thread.join(timeout=5.0)


def test_exhausted_retries_raise_cell_failed(tmp_path):
    plan = FaultPlan.from_string("seed=1,rate=1.0,kinds=crash,max=99")
    coordinator, _ = _coordinator(
        tmp_path,
        _cells(2),
        fault_plan=plan,
        policy=RetryPolicy(max_retries=1, backoff_base=0.01),
    )
    host, port = coordinator.start()
    thread = _worker_thread(host, port)
    assert coordinator.wait(timeout=60.0)
    with pytest.raises(CellFailedError) as excinfo:
        coordinator.result()
    assert excinfo.value.also_failed  # the other cell also reported
    coordinator.close()
    thread.join(timeout=5.0)


def test_silent_worker_lease_expires_and_cell_is_re_leased(tmp_path):
    bus = EventBus()
    with collecting(bus):
        stats = SweepStats()
        coordinator, _ = _coordinator(
            tmp_path,
            _cells(4),
            lease_seconds=0.3,
            policy=RetryPolicy(max_retries=2, backoff_base=0.01),
            stats=stats,
        )
        host, port = coordinator.start()
        rogue = _Client(host, port)
        leased = rogue.lease()  # take one cell, then never heartbeat
        deadline = time.monotonic() + 10.0
        while stats.timeouts == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert stats.timeouts >= 1
        thread = _worker_thread(host, port)
        assert coordinator.wait(timeout=30.0)
        result = coordinator.result()
        assert result == {i: i * i for i in range(4)}
        assert leased["cell"].key in result
        rogue.close()
        coordinator.close()
        thread.join(timeout=5.0)
    bus.pump()
    kinds = [event.kind for event in bus.events()]
    assert "lease_expired" in kinds
    bus.close()


def test_vanished_worker_requeues_without_charging(tmp_path):
    """EOF is crash recovery, not a cell failure: no retry is charged."""
    bus = EventBus()
    with collecting(bus):
        stats = SweepStats()
        coordinator, _ = _coordinator(
            tmp_path, _cells(4), lease_seconds=30.0, stats=stats
        )
        host, port = coordinator.start()
        rogue = _Client(host, port)
        rogue.lease()
        rogue.close()  # vanish mid-lease (SIGKILL looks like this)
        deadline = time.monotonic() + 10.0
        while coordinator.connected_workers() and time.monotonic() < deadline:
            time.sleep(0.02)
        thread = _worker_thread(host, port)
        assert coordinator.wait(timeout=30.0)
        assert coordinator.result() == {i: i * i for i in range(4)}
        assert stats.retries == 0
        assert stats.timeouts == 0
        coordinator.close()
        thread.join(timeout=5.0)
    bus.pump()
    lost = [event for event in bus.events() if event.kind == "worker_lost"]
    assert len(lost) == 1
    bus.close()


def test_duplicate_complete_is_acked_and_ignored(tmp_path):
    stats = SweepStats()
    coordinator, cache = _coordinator(tmp_path, _cells(1), stats=stats)
    host, port = coordinator.start()
    client = _Client(host, port)
    lease = client.lease()
    cache.put(lease["fingerprint"], 0, 0.01)
    client.conn.send(
        {"kind": "complete", "fingerprint": lease["fingerprint"], "seconds": 0.01}
    )
    first = client.conn.recv()
    assert first["kind"] == "ack" and not first["duplicate"]
    client.conn.send(
        {"kind": "complete", "fingerprint": lease["fingerprint"], "seconds": 0.01}
    )
    second = client.conn.recv()
    assert second["kind"] == "ack" and second["duplicate"]
    assert stats.completed == 1
    assert coordinator.done()
    client.close()
    coordinator.close()


def test_unreadable_result_is_charged_as_failed_attempt(tmp_path):
    """A complete whose cache entry is missing must not count as done."""
    stats = SweepStats()
    coordinator, _ = _coordinator(
        tmp_path,
        _cells(1),
        policy=RetryPolicy(max_retries=1, backoff_base=0.01),
        stats=stats,
    )
    host, port = coordinator.start()
    client = _Client(host, port)
    lease = client.lease()
    # Claim success without ever writing the shared cache.
    client.conn.send(
        {"kind": "complete", "fingerprint": lease["fingerprint"], "seconds": 0.01}
    )
    client.conn.recv()
    deadline = time.monotonic() + 10.0
    while stats.retries == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert stats.retries == 1
    assert stats.completed == 0
    client.close()
    coordinator.close()


def test_protocol_mismatch_is_rejected(tmp_path):
    coordinator, _ = _coordinator(tmp_path, _cells(1))
    host, port = coordinator.start()
    conn = Connection.connect(host, port, timeout=5.0)
    conn.send({"kind": "hello", "protocol": PROTOCOL_VERSION + 1, "worker": "w"})
    reply = conn.recv()
    assert reply["kind"] == "reject"
    assert "protocol" in reply["reason"]
    conn.close()
    coordinator.close()


def test_drain_pending_returns_submission_order(tmp_path):
    coordinator, _ = _coordinator(tmp_path, _cells(5), expected_workers=3)
    coordinator.start()
    drained = coordinator.drain_pending()
    assert [cell.key for cell in drained] == [0, 1, 2, 3, 4]
    assert coordinator.done()
    assert coordinator.result() == {}
    coordinator.absorb({cell.key: cell.key**2 for cell in drained})
    assert coordinator.result() == {i: i * i for i in range(5)}
    coordinator.close()


def test_locality_lanes_keep_graph_cells_together(tmp_path):
    """Cells sharing a graph land in one lane (ship once, stay resident)."""
    from repro.graphs import build_csr, uniform_random_graph

    from tests.cluster.cellfns import graph_edges

    graph_a = build_csr(uniform_random_graph(128, 4, seed=1))
    graph_b = build_csr(uniform_random_graph(128, 4, seed=2))
    cells = []
    for index, graph in enumerate([graph_a, graph_b] * 4):
        cells.append(
            SweepCell(key=index, fn=graph_edges, args=(graph, index))
        )
    coordinator, _ = _coordinator(tmp_path, cells, expected_workers=2)
    lanes = [
        {task.cell.args[0] is graph_a for task in lane}
        for lane in coordinator._lanes
        if lane
    ]
    # Each populated lane holds cells of exactly one graph.
    assert all(len(markers) == 1 for markers in lanes)
    coordinator.close()
