"""Unit tests for the fleet event bus (repro.obs.events).

The contracts pinned here are the ones the sweep engine and the report
writers lean on: the disabled fast path is a true no-op, the collector
drops (and counts) incompatible schema majors, subscriber exceptions
never propagate into ingestion, clock offsets map worker timestamps onto
the parent clock, ``fleet_summary`` keeps the ``executed + cached ==
total`` identity under fingerprint dedup, and
``merge_into_trace`` renders per-worker tracks (spans, instants,
resource counters) into one Chrome trace.
"""

from __future__ import annotations

import queue
import time

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    EVENTS_SCHEMA_VERSION,
    Event,
    EventBus,
    _message,
    collecting,
    current_bus,
    drain_worker_buffers,
    emit,
    gail_payload,
    in_worker,
    resource_snapshot,
    uninstall,
)
from repro.obs.trace import TraceRecorder


# ----------------------------------------------------------------------
# emission and collection
# ----------------------------------------------------------------------
def test_parent_emit_collects_in_arrival_order():
    bus = EventBus()
    bus.emit("plan_started", cell="fig3", cells_unique=4)
    bus.emit("cell_started", cell="a", fingerprint="fp-a", attempt=0)
    bus.emit("cell_finished", cell="a", fingerprint="fp-a", attempt=0, seconds=0.5)
    events = bus.events()
    assert [e.kind for e in events] == [
        "plan_started",
        "cell_started",
        "cell_finished",
    ]
    assert [e.index for e in events] == [0, 1, 2]
    assert events[1].fingerprint == "fp-a"
    assert events[2].payload["seconds"] == 0.5
    # Parent events need no clock correction.
    assert all(e.adjusted_ts == e.ts for e in events)
    assert bus.workers() == ["main"]


def test_event_as_dict_round_trips_fields():
    bus = EventBus()
    bus.emit("cell_retried", cell="a", fingerprint="fp", attempt=1, backoff=0.25)
    record = bus.events()[0].as_dict()
    assert record["kind"] == "cell_retried"
    assert record["cell"] == "a"
    assert record["fingerprint"] == "fp"
    assert record["attempt"] == 1
    assert record["payload"] == {"backoff": 0.25}


def test_emit_without_bus_or_channel_is_a_noop():
    uninstall()
    assert current_bus() is None
    assert not in_worker()
    emit("cell_finished", cell="nobody", seconds=1.0)  # must not raise
    assert drain_worker_buffers() == {}


def test_collecting_scopes_and_restores_the_bus():
    outer = EventBus()
    with collecting(outer) as bus:
        assert bus is outer
        assert current_bus() is outer
        with collecting() as inner:
            assert current_bus() is inner
            emit("cache_hit", cell="x", fingerprint="fp-x")
        assert current_bus() is outer
        emit("cache_hit", cell="y", fingerprint="fp-y")
    assert current_bus() is None
    assert [e.cell for e in outer.events()] == ["y"]


# ----------------------------------------------------------------------
# schema versioning and subscriber isolation
# ----------------------------------------------------------------------
def test_incompatible_schema_major_is_dropped_and_counted():
    bus = EventBus()
    foreign_major = int(EVENTS_SCHEMA_VERSION.split(".", 1)[0]) + 1
    good = _message("cell_started", "pid100", 0, "a", "fp", 0, {})
    bad = dict(good, v=f"{foreign_major}.0")
    bus._ingest(good)
    bus._ingest(bad)
    bus._ingest(dict(good, v=""))
    assert len(bus.events()) == 1
    assert bus.dropped() == 2
    assert bus.fleet_summary()["events"]["dropped"] == 2


def test_same_major_different_minor_is_accepted():
    bus = EventBus()
    major = EVENTS_SCHEMA_VERSION.split(".", 1)[0]
    message = _message("cell_started", "pid100", 0, "a", "fp", 0, {})
    message["v"] = f"{major}.99"
    bus._ingest(message)
    assert len(bus.events()) == 1
    assert bus.dropped() == 0


def test_raising_subscriber_does_not_break_ingestion_or_peers():
    bus = EventBus()
    seen = []

    def bad(event):
        raise RuntimeError("subscriber bug")

    bus.subscribe(bad)
    bus.subscribe(seen.append)
    bus.emit("cell_started", cell="a")
    bus.emit("cell_finished", cell="a", seconds=0.1)
    assert [e.kind for e in seen] == ["cell_started", "cell_finished"]
    assert len(bus.events()) == 2


# ----------------------------------------------------------------------
# pump and clock offsets
# ----------------------------------------------------------------------
def test_pump_drains_worker_queue_messages():
    bus = EventBus()
    bus._queue = queue.Queue()  # stand-in for the manager proxy
    bus._queue.put(_message("worker_spawned", "pid41", 0, None, None, None, {}))
    bus._queue.put(_message("cell_started", "pid41", 1, "a", "fp", 0, {}))
    assert bus.pump() == 2
    assert bus.pump() == 0
    assert [e.kind for e in bus.events()] == ["worker_spawned", "cell_started"]
    assert "pid41" in bus.workers()


def test_worker_clock_offset_is_minimum_observed_gap():
    bus = EventBus()
    now = time.perf_counter()
    # A worker whose clock reads 5 seconds behind the parent's: every
    # message arrives with a ~5s gap, and the smallest gap is the offset.
    first = _message("cell_started", "w", 0, "a", "fp", 0, {})
    first["ts"] = now - 5.0
    second = _message("cell_finished", "w", 1, "a", "fp", 0, {"seconds": 0.1})
    second["ts"] = now - 4.9
    bus._ingest(first)
    bus._ingest(second)
    offset = bus.offset("w")
    assert offset == pytest.approx(4.9, abs=0.5)
    events = bus.events()
    # Adjusted timestamps land near the parent clock and preserve order.
    assert events[0].adjusted_ts == pytest.approx(events[0].ts + offset)
    assert events[0].adjusted_ts <= events[1].adjusted_ts
    assert bus.offset("main") == 0.0


# ----------------------------------------------------------------------
# fleet summary
# ----------------------------------------------------------------------
def test_fleet_summary_accounting_identity_with_dedup():
    bus = EventBus()
    bus.emit("worker_spawned", pid=41)
    bus.emit("cell_finished", cell="a", fingerprint="fp-a", seconds=1.0)
    # Late duplicate finish for the same fingerprint (post-timeout replay)
    # must not double count.
    bus.emit("cell_finished", cell="a", fingerprint="fp-a", seconds=1.0)
    bus.emit("cache_hit", cell="b", fingerprint="fp-b")
    fleet = bus.fleet_summary()
    cells = fleet["cells"]
    assert cells["executed"] == 1
    assert cells["cached"] == 1
    assert cells["total"] == cells["executed"] + cells["cached"]
    assert cells["failed"] == 0
    assert fleet["workers"]["spawned"] == 1
    assert fleet["schema_version"] == EVENTS_SCHEMA_VERSION
    assert fleet["events"]["by_kind"]["cell_finished"] == 2


def test_fleet_summary_failed_excludes_eventual_successes():
    bus = EventBus()
    bus.emit(
        "cell_faulted", cell="a", fingerprint="fp-a",
        injected=True, permanent=False,
    )
    bus.emit("cell_retried", cell="a", fingerprint="fp-a", attempt=0)
    bus.emit("cell_finished", cell="a", fingerprint="fp-a", seconds=0.3)
    bus.emit(
        "cell_timeout", cell="b", fingerprint="fp-b",
        injected=False, permanent=True,
    )
    cells = bus.fleet_summary()["cells"]
    assert cells["executed"] == 1
    assert cells["failed"] == 1  # only b: a eventually succeeded
    assert cells["retries"] == 1
    assert cells["faults"] == 2
    assert cells["injected_faults"] == 1
    assert cells["timeouts"] == 1


def test_fleet_summary_folds_gail_and_resources():
    bus = EventBus()
    ratios = {
        "requests_per_edge": 0.5,
        "reads_per_edge": 1.5,
        "writes_per_edge": 0.25,
        "instructions_per_edge": 8.0,
        "seconds_per_edge": 1e-9,
    }
    message = _message(
        "cell_finished", "pid41", 0, "dpb/urand", "fp", 0,
        {"seconds": 1.0, "gail": ratios,
         "resources": {"rss_bytes": 2048.0, "cpu_seconds": 0.7}},
    )
    bus._ingest(message)
    fleet = bus.fleet_summary()
    assert fleet["gail"]["dpb/urand"] == ratios
    worker = fleet["per_worker"]["pid41"]
    assert worker["peak_rss_bytes"] == 2048.0
    assert worker["cpu_seconds"] == 0.7
    assert worker["busy_seconds"] == 1.0
    assert fleet["workers"]["peak_rss_bytes"] == 2048.0
    assert fleet["cell_seconds"]["total"] == 1.0


# ----------------------------------------------------------------------
# trace merge
# ----------------------------------------------------------------------
def test_merge_into_trace_builds_per_worker_tracks():
    bus = EventBus()
    now = time.perf_counter()
    message = _message(
        "cell_finished", "pid4242", 0, "dpb/urand", "fp", 0,
        {
            "seconds": 0.5,
            "spans": [("sweep/cell[dpb]", now - 0.5, now)],
            "counters": [("mem", now - 0.2, {"reads": 10.0})],
            "resources": {"rss_bytes": float(1 << 20), "cpu_seconds": 0.1},
        },
    )
    bus._ingest(message)
    bus._ingest(
        _message("resource_sample", "pid4242", 1, None, None, None,
                 {"resources": {"rss_bytes": float(2 << 20), "cpu_seconds": 0.2}})
    )
    bus.emit("cache_hit", cell="other", fingerprint="fp2", seconds=0.1)
    tracer = TraceRecorder()
    bus.merge_into_trace(tracer)
    chrome = tracer.to_chrome()
    events = chrome["traceEvents"]

    metadata = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert metadata[4242] == "worker pid4242"  # pid parsed from the name
    assert 0 in metadata  # the parent track is always named

    spans = [e for e in events if e["ph"] == "X" and e["pid"] == 4242]
    assert len(spans) == 1
    assert spans[0]["name"] == "cell[dpb]"  # leaf of the span path
    assert spans[0]["dur"] == pytest.approx(0.5e6, rel=0.01)  # microseconds

    counters = [e for e in events if e["ph"] == "C" and e["pid"] == 4242]
    assert {e["name"] for e in counters} == {"mem", "worker_resources"}

    instants = [e for e in events if e["ph"] == "i"]
    assert {(e["pid"], e["name"]) for e in instants} == {
        (4242, "cell_finished"),
        (0, "cache_hit"),
    }
    # The bulky payload keys never leak into instant args.
    finished = next(e for e in instants if e["name"] == "cell_finished")
    assert set(finished["args"]) & {"spans", "counters", "resources"} == set()


def test_merge_into_trace_synthesizes_pids_for_unnamed_workers():
    bus = EventBus()
    bus._ingest(_message("cell_started", "oddball", 0, "a", "fp", 0, {}))
    tracer = TraceRecorder()
    bus.merge_into_trace(tracer)
    pids = {
        e["pid"]
        for e in tracer.to_chrome()["traceEvents"]
        if e["ph"] == "M" and e["args"]["name"] == "worker oddball"
    }
    assert len(pids) == 1
    assert pids.pop() >= 1 << 20  # cannot collide with a real OS pid


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def test_resource_snapshot_reports_plausible_numbers():
    snapshot = resource_snapshot()
    assert set(snapshot) == {"rss_bytes", "cpu_seconds"}
    assert snapshot["rss_bytes"] > 0  # this test process is using memory
    assert snapshot["cpu_seconds"] >= 0


def test_gail_payload_duck_types_on_measurement_like_results():
    class Ratios:
        requests_per_edge = 0.5
        reads_per_edge = 1.5
        writes_per_edge = 0.25
        instructions_per_edge = 8.0
        seconds_per_edge = 1e-9

    class MeasurementLike:
        def gail(self):
            return Ratios()

    payload = gail_payload(MeasurementLike())
    assert payload == {
        "requests_per_edge": 0.5,
        "reads_per_edge": 1.5,
        "writes_per_edge": 0.25,
        "instructions_per_edge": 8.0,
        "seconds_per_edge": 1e-9,
    }
    assert gail_payload(42) is None
    assert gail_payload(object()) is None

    class Broken:
        def gail(self):
            raise RuntimeError("no counters attached")

    assert gail_payload(Broken()) is None


def test_event_kinds_cover_the_documented_lifecycle():
    assert set(EVENT_KINDS) >= {
        "plan_started", "cell_started", "cell_finished", "cell_retried",
        "cell_timeout", "cell_faulted", "cache_hit",
        "worker_spawned", "worker_replaced", "resource_sample",
    }
