"""Cross-process event bus: the fleet flight recorder.

Spans (:mod:`repro.obs.spans`) and traces (:mod:`repro.obs.trace`) record
what happens *in this process* — but pooled sweeps run their cells in
worker processes where the parent's recorder cannot see them.  This
module closes that gap with a schema-versioned structured event stream:

* **worker processes** emit lifecycle events (``cell_started`` /
  ``cell_finished`` / ``worker_spawned``) and periodic resource samples
  (RSS and CPU time via :mod:`resource` / ``/proc``) through the channel
  :func:`worker_init` installs — in practice their coordinator
  connection, framed as ``event`` messages (:mod:`repro.cluster.worker`),
  the one route worker telemetry takes to the parent;
* the **parent** emits the events only it can know about
  (``cell_retried`` / ``cell_timeout`` / ``cell_faulted`` /
  ``cache_hit`` / ``worker_replaced`` / ``plan_started`` and the lease
  lifecycle) directly into the same stream;
* an :class:`EventBus` collects both sides, assigns a global arrival
  order, estimates per-worker clock offsets, notifies subscribers (the
  live progress renderer) one event at a time, merges worker-side span
  trees into a :class:`~repro.obs.trace.TraceRecorder` as per-worker
  tracks, and folds everything into the ``fleet`` section of a run
  report (``docs/metrics_schema.md``).

Arrival order is **causal per cell**: a worker sends an attempt's
events on its connection ahead of the attempt's ``complete``/``failed``
frame, and the coordinator handles one connection's frames in order, so
``cell_started`` always precedes the parent's
``cell_faulted``/``cell_retried`` for the same attempt, which precede
the next attempt's ``cell_started``.  (A cell that overruns its
deadline is the one exception: its replaced worker never finishes it.
Terminal cell accounting dedups by fingerprint all the same.)

When no bus is installed, :func:`emit` is a no-op after one global read
— the same disabled-fast-path contract as spans and traces, so the
instrumentation lives permanently in the sweep engine.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "EVENTS_SCHEMA_VERSION",
    "EVENT_KINDS",
    "Event",
    "EventBus",
    "collecting",
    "current_bus",
    "emit",
    "in_worker",
    "install",
    "uninstall",
    "worker_deinit",
    "worker_init",
    "worker_span_sink",
    "drain_worker_buffers",
    "resource_snapshot",
    "gail_payload",
]

#: Version of the event wire/report schema (``docs/metrics_schema.md``).
#: Major bump on incompatible change, minor on additive; a collector
#: drops messages from a different major (counted in ``dropped``).
#: 1.1: shm_* lifecycle events, the fleet's lane-assignment event,
#: fleet ``shm`` section and per-worker ``resident_graphs``.
#: 1.2: serve_* events from the query layer (:mod:`repro.serve`) —
#: per-request, per-batch, cache-hit, and graph-update telemetry.
#: 1.3: cluster lifecycle events (:mod:`repro.cluster`) — worker
#: join/loss and the lease lifecycle — plus the fleet ``cluster``
#: section.
#: 2.0: removed the shm_* events, the fleet ``shm`` section and the
#: per-worker ``resident_graphs`` counter with the shared-memory graph
#: plane.
#: 3.0: removed the ``checkpoint_resumed`` event and the fleet
#: ``cells.resumed`` counter with sweep checkpoints (an interrupted run
#: resumes through the measurement cache, as ``cache_hit`` events).
#: 4.0: removed the lane-assignment event and the ``lane`` field of
#: ``worker_joined`` with the fleet's graph-affinity lanes.
EVENTS_SCHEMA_VERSION = "4.0"

#: Every recognised event kind.
EVENT_KINDS = (
    "plan_started",        # parent: a compiled plan begins executing
    "cell_started",        # worker: one attempt of one cell begins
    "cell_finished",       # worker: an attempt completed with a result
    "cell_retried",        # parent: a failed attempt will be retried
    "cell_timeout",        # parent: an attempt overran its deadline
    "cell_faulted",        # parent: an attempt failed (crash/corrupt)
    "cache_hit",           # parent: a cell was satisfied from the cache
    "worker_spawned",      # worker: a worker process came up
    "worker_replaced",     # parent: a dead or wedged worker was replaced
    "resource_sample",     # worker: periodic RSS / CPU-time sample
    "serve_request",       # server: one PPR query accepted (hit or miss)
    "serve_batch",         # server: one coalesced batch solved (occupancy)
    "serve_cache_hit",     # server: a query answered from the result cache
    "serve_graph_updated", # server: an edge-update batch was applied
    "worker_joined",       # coordinator: a fleet worker connected
    "worker_lost",         # coordinator: a fleet worker disconnected/expired
    "lease_granted",       # coordinator: a cell was leased to a worker
    "lease_expired",       # coordinator: a lease outlived its heartbeats
    "lease_completed",     # coordinator: a leased cell's result landed
)

#: Worker name used for events emitted by the parent process.
MAIN_WORKER = "main"


# ----------------------------------------------------------------------
# resource sampling (worker- and parent-side)
# ----------------------------------------------------------------------
def resource_snapshot() -> dict[str, float]:
    """Current RSS (bytes) and cumulative CPU seconds of this process.

    Prefers ``/proc/self/statm`` for live RSS (Linux); falls back to
    ``resource.getrusage`` peak RSS elsewhere.  Never raises — a
    telemetry read must not take down a worker.
    """
    rss = 0.0
    cpu = 0.0
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu = float(usage.ru_utime + usage.ru_stime)
        # ru_maxrss is KiB on Linux, bytes on macOS; normalize to bytes
        # assuming KiB (the Linux CI/dev platform) when the value is
        # implausibly small for bytes.
        peak = float(usage.ru_maxrss)
        rss = peak * 1024.0 if peak < 1 << 32 else peak
    except Exception:  # noqa: BLE001 — telemetry is best-effort
        pass
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        rss = float(pages * os.sysconf("SC_PAGE_SIZE"))
    except Exception:  # noqa: BLE001 — not Linux, keep the rusage peak
        pass
    return {"rss_bytes": rss, "cpu_seconds": cpu}


def gail_payload(result: Any) -> dict[str, float] | None:
    """GAIL per-edge ratios of ``result`` if it is Measurement-like.

    Duck-typed on ``gail()`` so the obs layer keeps importing nothing
    from the harness; any cell result carrying MemCounters-backed GAIL
    metrics contributes its decomposition to the fleet record.
    """
    gail = getattr(result, "gail", None)
    if not callable(gail):
        return None
    try:
        metrics = gail()
        return {
            "requests_per_edge": float(metrics.requests_per_edge),
            "reads_per_edge": float(metrics.reads_per_edge),
            "writes_per_edge": float(metrics.writes_per_edge),
            "instructions_per_edge": float(metrics.instructions_per_edge),
            "seconds_per_edge": float(metrics.seconds_per_edge),
        }
    except Exception:  # noqa: BLE001 — non-conforming results carry no GAIL
        return None


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass
class Event:
    """One collected event, as seen by the parent.

    ``ts`` is the emitter's ``perf_counter`` reading; ``adjusted_ts``
    maps it onto the parent clock using the per-worker offset estimate
    (minimum observed transport latency).  ``index`` is the global arrival
    order — causal per cell, see the module docstring.
    """

    kind: str
    ts: float
    worker: str
    seq: int
    cell: str | None = None
    fingerprint: str | None = None
    attempt: int | None = None
    payload: dict[str, Any] = field(default_factory=dict)
    index: int = -1
    adjusted_ts: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "ts": self.adjusted_ts,
            "worker": self.worker,
            "seq": self.seq,
            "cell": self.cell,
            "fingerprint": self.fingerprint,
            "attempt": self.attempt,
            "payload": dict(self.payload),
        }


def _message(
    kind: str,
    worker: str,
    seq: int,
    cell: Any,
    fingerprint: str | None,
    attempt: int | None,
    payload: dict[str, Any],
) -> dict[str, Any]:
    """Wire form of one event (a plain picklable dict)."""
    return {
        "v": EVENTS_SCHEMA_VERSION,
        "kind": kind,
        "ts": time.perf_counter(),
        "worker": worker,
        "seq": seq,
        "cell": None if cell is None else str(cell),
        "fingerprint": fingerprint,
        "attempt": attempt,
        "payload": payload,
    }


# ----------------------------------------------------------------------
# the parent-side bus / collector
# ----------------------------------------------------------------------
class EventBus:
    """Collects the fleet's event stream in the parent process.

    The bus is also the parent's emitter (``bus.emit``); worker events
    arrive through :meth:`ingest`.  Ingestion assigns the arrival index
    and calls the subscribers under one re-entrant delivery lock, so
    subscribers see events one at a time, in index order, even when
    several coordinator connections deliver at once (and may emit from
    inside a callback).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._events: list[Event] = []
        self._subscribers: list[Callable[[Event], None]] = []
        self._seq = 0
        self._dropped = 0
        self._offsets: dict[str, float] = {MAIN_WORKER: 0.0}

    # ------------------------------------------------------------------
    # emission (parent side)
    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        *,
        cell: Any = None,
        fingerprint: str | None = None,
        attempt: int | None = None,
        **payload: Any,
    ) -> None:
        """Record one parent-side event and notify subscribers."""
        with self._lock:
            seq = self._seq
            self._seq += 1
        message = _message(kind, MAIN_WORKER, seq, cell, fingerprint, attempt, payload)
        self._ingest(message)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, message: dict[str, Any]) -> None:
        """Ingest one wire-form message from a worker.

        The cluster coordinator receives worker messages framed over its
        sockets and forwards them here, so a worker's telemetry lands in
        the same stream with the same schema/versioning rules.
        """
        self._ingest(message)

    def _ingest(self, message: dict[str, Any]) -> None:
        version = str(message.get("v", ""))
        if version.split(".", 1)[0] != EVENTS_SCHEMA_VERSION.split(".", 1)[0]:
            with self._lock:
                self._dropped += 1
            return
        arrival = time.perf_counter()
        event = Event(
            kind=message["kind"],
            ts=float(message["ts"]),
            worker=str(message["worker"]),
            seq=int(message["seq"]),
            cell=message.get("cell"),
            fingerprint=message.get("fingerprint"),
            attempt=message.get("attempt"),
            payload=dict(message.get("payload") or {}),
        )
        with self._lock:
            # Clock alignment: the smallest observed (arrival - ts) gap
            # bounds the worker clock offset from above by one transport
            # latency; on Linux both clocks are CLOCK_MONOTONIC so the
            # estimate converges to ~0.
            gap = arrival - event.ts
            known = self._offsets.get(event.worker)
            if known is None or gap < known:
                self._offsets[event.worker] = gap
            event.index = len(self._events)
            self._events.append(event)
            for subscriber in list(self._subscribers):
                try:
                    subscriber(event)
                except Exception:  # noqa: BLE001 — a bad subscriber must not
                    pass  # take down the sweep's scheduling threads

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Callable[[Event], None]) -> None:
        """Call ``subscriber(event)`` for every event as it arrives."""
        with self._lock:
            self._subscribers.append(subscriber)

    def offset(self, worker: str) -> float:
        """Estimated parent-clock offset of ``worker`` (0 for the parent)."""
        with self._lock:
            return self._offsets.get(worker, 0.0)

    def events(self) -> list[Event]:
        """Every collected event in arrival order, offsets applied."""
        with self._lock:
            snapshot = list(self._events)
            offsets = dict(self._offsets)
        for event in snapshot:
            event.adjusted_ts = event.ts + offsets.get(event.worker, 0.0)
        return snapshot

    def dropped(self) -> int:
        """Messages discarded for an incompatible schema major."""
        with self._lock:
            return self._dropped

    def workers(self) -> list[str]:
        """Every worker that emitted at least one event, first-seen order."""
        seen: dict[str, None] = {}
        for event in self.events():
            seen.setdefault(event.worker, None)
        return list(seen)

    # ------------------------------------------------------------------
    # fleet summary (the report's ``fleet`` section, schema 1.4)
    # ------------------------------------------------------------------
    def fleet_summary(self) -> dict[str, Any]:
        """Fold the event stream into the run report's ``fleet`` section.

        Terminal cell accounting dedups by fingerprint so a late
        ``cell_finished`` from a timed-out-then-retried cell cannot
        double count: ``executed + cached`` equals the number of
        distinct cells that reached a terminal success state.
        """
        events = self.events()
        by_kind: dict[str, int] = {}
        executed: set[str] = set()
        cached: set[str] = set()
        failed: set[str] = set()
        retries = 0
        faults = 0
        injected = 0
        timeouts = 0
        gail: dict[str, dict[str, float]] = {}
        per_worker: dict[str, dict[str, float]] = {}
        spawned = 0
        replaced = 0
        seconds: list[float] = []
        workers_joined = 0
        workers_lost = 0
        leases_granted = 0
        leases_expired = 0
        leases_completed = 0
        graphs_shipped = 0

        def worker_record(name: str) -> dict[str, float]:
            return per_worker.setdefault(
                name,
                {"cells": 0, "busy_seconds": 0.0, "peak_rss_bytes": 0.0,
                 "cpu_seconds": 0.0},
            )

        for event in events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
            key = event.fingerprint or event.cell or ""
            if event.kind == "cell_finished":
                executed.add(key)
                record = worker_record(event.worker)
                record["cells"] += 1
                record["busy_seconds"] += float(event.payload.get("seconds", 0.0))
                seconds.append(float(event.payload.get("seconds", 0.0)))
            elif event.kind == "cache_hit":
                cached.add(key)
            elif event.kind == "cell_retried":
                retries += 1
            elif event.kind in ("cell_faulted", "cell_timeout"):
                faults += 1
                if event.kind == "cell_timeout":
                    timeouts += 1
                if event.payload.get("injected"):
                    injected += 1
                if event.payload.get("permanent"):
                    failed.add(key)
            elif event.kind == "worker_spawned":
                spawned += 1
            elif event.kind == "worker_replaced":
                replaced += 1
            elif event.kind == "worker_joined":
                workers_joined += 1
            elif event.kind == "worker_lost":
                workers_lost += 1
            elif event.kind == "lease_granted":
                leases_granted += 1
                if event.payload.get("graph_shipped"):
                    graphs_shipped += 1
            elif event.kind == "lease_expired":
                leases_expired += 1
            elif event.kind == "lease_completed":
                leases_completed += 1
            if event.kind in ("cell_finished", "cache_hit"):
                decomposition = event.payload.get("gail")
                if decomposition and event.cell:
                    gail[event.cell] = {
                        k: float(v) for k, v in decomposition.items()
                    }
            if event.kind in ("resource_sample", "worker_spawned", "cell_finished"):
                resources = event.payload.get("resources")
                if resources:
                    record = worker_record(event.worker)
                    record["peak_rss_bytes"] = max(
                        record["peak_rss_bytes"],
                        float(resources.get("rss_bytes", 0.0)),
                    )
                    record["cpu_seconds"] = max(
                        record["cpu_seconds"],
                        float(resources.get("cpu_seconds", 0.0)),
                    )
        # A cell that failed some attempts but eventually succeeded (or
        # was re-run after a worker replacement) is not a failed cell.
        failed -= executed | cached
        total = len(executed) + len(cached)
        return {
            "schema_version": EVENTS_SCHEMA_VERSION,
            "workers": {
                "spawned": spawned,
                "replaced": replaced,
                "peak_rss_bytes": max(
                    (w["peak_rss_bytes"] for w in per_worker.values()), default=0.0
                ),
                "cpu_seconds": sum(w["cpu_seconds"] for w in per_worker.values()),
            },
            "cells": {
                "total": total,
                "executed": len(executed),
                "cached": len(cached),
                "failed": len(failed),
                "retries": retries,
                "faults": faults,
                "injected_faults": injected,
                "timeouts": timeouts,
            },
            "events": {
                "total": len(events),
                "dropped": self.dropped(),
                "by_kind": dict(sorted(by_kind.items())),
            },
            "cell_seconds": {
                "total": float(sum(seconds)),
                "max": float(max(seconds, default=0.0)),
                "mean": float(sum(seconds) / len(seconds)) if seconds else 0.0,
            },
            "cluster": {
                "workers_joined": workers_joined,
                "workers_lost": workers_lost,
                "leases": {
                    "granted": leases_granted,
                    "expired": leases_expired,
                    "completed": leases_completed,
                },
                "graphs_shipped": graphs_shipped,
            },
            "per_worker": {name: dict(rec) for name, rec in sorted(per_worker.items())},
            "gail": {label: dict(ratios) for label, ratios in sorted(gail.items())},
        }

    # ------------------------------------------------------------------
    # trace merge (per-worker tracks)
    # ------------------------------------------------------------------
    def merge_into_trace(self, tracer) -> None:
        """Merge worker spans and lifecycle events into ``tracer``.

        Every worker becomes its own trace process (pid = OS pid, named
        track); worker-side cell span trees become complete events on
        that track, lifecycle events become instants, and resource
        samples become per-worker counter tracks.  Parent-side
        lifecycle events land as instants on the parent's own track
        (pid 0), next to the natively recorded spans.
        """
        pids: dict[str, int] = {MAIN_WORKER: 0}
        next_synthetic = 1 << 20  # fallback pids that cannot collide with OS pids

        def pid_for(worker: str) -> int:
            pid = pids.get(worker)
            if pid is None:
                nonlocal next_synthetic
                if worker.startswith("pid") and worker[3:].isdigit():
                    pid = int(worker[3:])
                else:
                    pid = next_synthetic
                    next_synthetic += 1
                pids[worker] = pid
                tracer.add_process(pid, f"worker {worker}")
            return pid

        for event in self.events():
            pid = pid_for(event.worker)
            if event.kind == "resource_sample" or "resources" in event.payload:
                resources = event.payload.get("resources")
                if resources:
                    tracer.counter(
                        "worker_resources",
                        {
                            "rss_mib": resources.get("rss_bytes", 0.0) / (1 << 20),
                            "cpu_seconds": resources.get("cpu_seconds", 0.0),
                        },
                        pid=pid,
                        at=event.adjusted_ts,
                    )
                if event.kind == "resource_sample":
                    continue
            offset = event.adjusted_ts - event.ts
            for path, start, end in event.payload.get("spans", ()):
                tracer.complete_event(
                    pid=pid,
                    name=path.rsplit("/", 1)[-1],
                    start=start + offset,
                    end=end + offset,
                    args={"path": path, "worker": event.worker},
                )
            for track, sampled_at, values in event.payload.get("counters", ()):
                tracer.counter(track, values, pid=pid, at=sampled_at + offset)
            args = {
                "worker": event.worker,
                "cell": event.cell,
                "attempt": event.attempt,
            }
            args.update(
                (k, v)
                for k, v in event.payload.items()
                if k not in ("spans", "counters", "resources", "gail")
                and isinstance(v, (int, float, str, bool, type(None)))
            )
            tracer.instant_event(
                pid=pid, name=event.kind, ts=event.adjusted_ts, args=args
            )


# ----------------------------------------------------------------------
# process-global dispatch: parent bus or worker channel
# ----------------------------------------------------------------------
_bus: EventBus | None = None


class _WorkerChannel:
    """Worker-side emitter state installed by :func:`worker_init`."""

    __slots__ = ("transport", "name", "seq", "span_buffer", "counter_buffer")

    def __init__(self, transport, name: str) -> None:
        self.transport = transport
        self.name = name
        self.seq = 0
        self.span_buffer: list[tuple[str, float, float]] = []
        self.counter_buffer: list[tuple[str, float, dict[str, float]]] = []

    def send(
        self,
        kind: str,
        cell: Any = None,
        fingerprint: str | None = None,
        attempt: int | None = None,
        payload: dict[str, Any] | None = None,
    ) -> None:
        message = _message(
            kind, self.name, self.seq, cell, fingerprint, attempt, payload or {}
        )
        self.seq += 1
        try:
            self.transport.put(message)
        except Exception:  # noqa: BLE001 — a lost parent must not kill cells
            pass


_worker_channel: _WorkerChannel | None = None


def install(bus: EventBus) -> EventBus:
    """Make ``bus`` the process-global event destination."""
    global _bus
    _bus = bus
    return bus


def uninstall() -> None:
    global _bus
    _bus = None


def current_bus() -> EventBus | None:
    """The installed parent-side bus, or ``None`` (the disabled path)."""
    return _bus


def in_worker() -> bool:
    """Whether this process is a worker feeding a remote bus."""
    return _worker_channel is not None


class collecting:
    """Context manager scoping an installed :class:`EventBus`::

        with collecting() as bus:
            run_cells(...)
        bus.fleet_summary()
    """

    def __init__(self, bus: EventBus | None = None) -> None:
        self._bus = bus if bus is not None else EventBus()
        self._previous: EventBus | None = None

    def __enter__(self) -> EventBus:
        self._previous = current_bus()
        return install(self._bus)

    def __exit__(self, *exc: object) -> None:
        global _bus
        _bus = self._previous
        return None


def emit(
    kind: str,
    *,
    cell: Any = None,
    fingerprint: str | None = None,
    attempt: int | None = None,
    **payload: Any,
) -> None:
    """Emit one event to wherever this process reports (or nowhere).

    In a worker: onto the channel installed by :func:`worker_init`.
    In a parent with an installed bus: directly into the bus.  With
    neither: a no-op after two global reads.
    """
    channel = _worker_channel
    if channel is not None:
        channel.send(kind, cell, fingerprint, attempt, payload)
        return
    bus = _bus
    if bus is not None:
        bus.emit(
            kind, cell=cell, fingerprint=fingerprint, attempt=attempt, **payload
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _WorkerSpanSink:
    """Span event sink buffering ``(path, start, end)`` in the worker.

    Installed process-wide in each worker; the buffer is drained into
    the next ``cell_finished`` payload, which is how worker-side span
    trees reach the parent's merged trace.
    """

    def __init__(self, channel: _WorkerChannel) -> None:
        self._channel = channel

    def record_span(self, path: str, start: float, end: float) -> None:
        buffer = self._channel.span_buffer
        if len(buffer) < 100_000:  # bound payload growth on span-happy cells
            buffer.append((path, start, end))

    def counter(self, track: str, values: dict[str, float]) -> None:
        """Buffer one :func:`~repro.obs.trace.counter_sample` point.

        Instrumented cell code publishes counter samples through the
        process-global span sink; inside a worker that sink is this
        object, so the samples ride home with the cell instead of being
        dropped (or crashing on a missing method).
        """
        buffer = self._channel.counter_buffer
        if len(buffer) < 100_000:
            buffer.append(
                (track, time.perf_counter(),
                 {k: float(v) for k, v in values.items()})
            )


def worker_span_sink() -> list[tuple[str, float, float]] | None:
    """This worker's span buffer, or ``None`` outside a worker."""
    channel = _worker_channel
    return channel.span_buffer if channel is not None else None


def drain_worker_buffers() -> dict[str, list]:
    """Cut and return this worker's span/counter buffers (for payloads)."""
    channel = _worker_channel
    if channel is None:
        return {}
    payload: dict[str, list] = {}
    if channel.span_buffer:
        payload["spans"] = channel.span_buffer
        channel.span_buffer = []
    if channel.counter_buffer:
        payload["counters"] = channel.counter_buffer
        channel.counter_buffer = []
    return payload


def _resource_sampler(channel: _WorkerChannel, interval: float) -> None:
    while True:
        time.sleep(interval)
        channel.send("resource_sample", payload={"resources": resource_snapshot()})


def worker_init(transport, sample_interval: float = 0.5) -> None:
    """Connect this worker process to the parent's event bus.

    ``transport`` is anything with ``put(message)`` (a fleet worker's
    coordinator connection).  Installs the worker channel, announces
    ``worker_spawned``, routes completed spans into the per-cell buffer,
    and starts the periodic resource sampler (daemon thread — it dies
    with the worker).  Never raises: a telemetry failure must not break
    the worker.
    """
    global _worker_channel
    try:
        channel = _WorkerChannel(transport, f"pid{os.getpid()}")
        _worker_channel = channel
        from repro.obs import spans

        spans.set_event_sink(_WorkerSpanSink(channel))
        channel.send(
            "worker_spawned",
            payload={"pid": os.getpid(), "resources": resource_snapshot()},
        )
        if sample_interval and sample_interval > 0:
            thread = threading.Thread(
                target=_resource_sampler,
                args=(channel, sample_interval),
                name="repro-resource-sampler",
                daemon=True,
            )
            thread.start()
    except Exception:  # noqa: BLE001 — see docstring
        _worker_channel = None


def worker_deinit() -> None:
    """Undo :func:`worker_init`: detach this process from worker mode.

    A worker process never needs this (it exits), but a fleet
    worker hosted on a thread — tests do this — must restore the
    process to parent-side routing when its connection ends, or every
    later :func:`emit` in the process writes into a dead channel.
    """
    global _worker_channel
    channel = _worker_channel
    _worker_channel = None
    if channel is None:
        return
    from repro.obs import spans

    sink = spans.current_event_sink()
    if isinstance(sink, _WorkerSpanSink) and sink._channel is channel:
        spans.set_event_sink(None)
