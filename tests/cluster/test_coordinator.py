"""Coordinator tests: leases, retries, expiry, and crash recovery.

Workers here are in-process — either the real :func:`run_worker` loop on
a thread (cells are cheap, so thread workers are exact and fast) or a
hand-rolled protocol client for the paths a well-behaved worker never
takes (going silent, dropping mid-lease, reporting a lease it lost).
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
        """The next frame, which must be a lease: the first follows the
        welcome, each later one answers a report."""
        reply = self.conn.recv()
        assert reply["kind"] == "lease", reply
        return reply

    def close(self):
        self.conn.close()


def _coordinator(tmp_path, cells, **kwargs):
    cache = MeasurementCache(str(tmp_path / "cache"))
    kwargs.setdefault("stats", SweepStats())
    return Coordinator(cells, cache=cache, **kwargs), cache


def test_threaded_worker_completes_everything(tmp_path):
    bus = EventBus()
    with collecting(bus):
        coordinator, _ = _coordinator(tmp_path, _cells())
        host, port = coordinator.start()
        thread = _worker_thread(host, port)
        assert coordinator.wait(timeout=30.0)
        assert coordinator.result() == EXPECTED
        coordinator.close()
        thread.join(timeout=5.0)
    kinds = [event.kind for event in bus.events()]
    assert kinds.count("worker_joined") == 1
    assert kinds.count("lease_granted") == len(EXPECTED)
    assert kinds.count("lease_completed") == len(EXPECTED)
    assert coordinator.stats.completed == len(EXPECTED)
    cluster = bus.fleet_summary()["cluster"]
    assert cluster["leases"] == {
        "granted": len(EXPECTED), "expired": 0, "completed": len(EXPECTED)
    }


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
    kinds = [event.kind for event in bus.events()]
    assert "lease_expired" in kinds


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
    lost = [event for event in bus.events() if event.kind == "worker_lost"]
    assert len(lost) == 1


def test_duplicate_complete_is_acked_and_ignored(tmp_path):
    """A stale complete — for a lease that expired — counts nothing and is
    answered, like any report, by the next lease or shutdown."""
    stats = SweepStats()
    coordinator, cache = _coordinator(
        tmp_path,
        _cells(1),
        lease_seconds=0.5,
        policy=RetryPolicy(max_retries=1, backoff_base=0.01),
        stats=stats,
    )
    host, port = coordinator.start()
    client = _Client(host, port)
    lease = client.lease()  # then no heartbeat: the lease expires
    deadline = time.monotonic() + 10.0
    while stats.timeouts == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert stats.timeouts == 1
    cache.put(lease["fingerprint"], 0, 0.01)
    client.conn.send(
        {"kind": "complete", "index": lease["index"], "seconds": 0.01}
    )
    again = client.lease()  # the stale report is answered by the re-lease
    assert again["index"] == lease["index"] and again["attempt"] == 1
    assert stats.completed == 0 and not coordinator.done()
    client.conn.send(
        {"kind": "complete", "index": again["index"], "seconds": 0.01}
    )
    assert client.conn.recv()["kind"] == "shutdown"
    assert stats.completed == 1
    assert coordinator.done()
    assert coordinator.result() == {0: 0}
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
        {"kind": "complete", "index": lease["index"], "seconds": 0.01}
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
    """With no worker, the serial fallback runs every queued cell and the
    results fold in submission order."""
    coordinator, _ = _coordinator(tmp_path, _cells(5))
    coordinator.start()
    assert coordinator.run_pending_serially() == 5
    assert coordinator.done()
    result = coordinator.result()
    assert list(result) == [0, 1, 2, 3, 4]
    assert result == {i: i * i for i in range(5)}
    coordinator.close()
