"""Fleet worker: dial a coordinator, lease cells, write results to the
shared cache.

One worker is one process (``repro-pb worker``, or one of the local
processes every pooled sweep starts, :func:`repro.cluster.executor.
run_fleet`) running a strict request/reply loop over one
:class:`~repro.cluster.wire.Connection`, one frame each way per cell:

1. ``hello`` → ``welcome`` — protocol check; the welcome carries the
   shared cache directory, the fault plan, and the heartbeat cadence;
   the first ``lease`` (or ``shutdown``) follows it unasked;
2. execute the leased cell through the *same*
   :func:`repro.parallel.resilience._attempt_cell` a serial sweep uses
   — fault injection, spans, and the ``cell_started`` /
   ``cell_finished`` events all behave identically;
3. write the result into the shared
   :class:`~repro.harness.cache.MeasurementCache` (atomic rename), then
   report ``complete`` carrying only the lease's submission index —
   the data plane never rides the socket;
4. on a cell exception, report ``failed`` instead, carrying the pickled
   exception and its traceback (type name and message alone when the
   exception does not pickle);
5. the coordinator answers each report with the next ``lease`` or
   ``shutdown``; on ``shutdown`` the worker says ``goodbye`` and exits.

Telemetry: :func:`repro.obs.events.worker_init` accepts anything with
``put(message)``, so :class:`_SocketChannel` adapts the connection and
the worker's events, span buffers, and resource samples stream to the
coordinator framed as ``event`` messages — the one route worker
telemetry takes to the parent.  A daemon heartbeat thread renews the
worker's leases; killing the process (or its host) silences the
heartbeat and the coordinator recovers the cell through lease expiry.
"""

from __future__ import annotations

import os
import pickle
import socket as socket_module
import threading
import traceback
from typing import Any

from repro.cluster.shipping import resolve_cell
from repro.cluster.wire import PROTOCOL_VERSION, Connection, FrameError
from repro.obs import events as _events
from repro.obs.log import get_logger
from repro.parallel.faults import FaultPlan, is_corrupt
from repro.parallel.resilience import CorruptResultError, _attempt_cell

__all__ = ["run_worker", "WorkerError"]

log = get_logger("cluster.worker")


class WorkerError(RuntimeError):
    """The worker could not join or follow the protocol."""


class _SocketChannel:
    """Queue-shaped adapter: ``put(message)`` frames onto the socket."""

    def __init__(self, conn: Connection) -> None:
        self._conn = conn

    def put(self, message: dict[str, Any]) -> None:
        self._conn.send({"kind": "event", "message": message})


def _failure_report(exc: BaseException) -> dict[str, Any]:
    """A ``failed`` frame's payload for the exception being handled: the
    pickled exception when it survives a round trip, its type name,
    message and traceback in any case."""
    report: dict[str, Any] = {
        "error": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
    except Exception:  # noqa: BLE001 — the coordinator falls back
        return report
    report["exception"] = blob
    return report


def _heartbeat_loop(conn: Connection, interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            conn.send({"kind": "heartbeat"})
        except OSError:
            return  # coordinator is gone; the main loop will notice


def run_worker(
    host: str,
    port: int,
    *,
    cache_dir: str | None = None,
    name: str | None = None,
    connect_timeout: float = 10.0,
) -> int:
    """Serve one coordinator until it says ``shutdown``; return an exit
    code.

    ``cache_dir`` overrides the welcome's advertised cache directory —
    needed when the shared filesystem mounts at a different path on
    this host.
    """
    try:
        conn = Connection.connect(host, port, timeout=connect_timeout)
    except OSError as exc:
        log.error("cannot reach coordinator %s:%d: %s", host, port, exc)
        return 1
    stop_heartbeat = threading.Event()
    try:
        conn.send(
            {
                "kind": "hello",
                "protocol": PROTOCOL_VERSION,
                "worker": name or f"pid{os.getpid()}",
                "pid": os.getpid(),
                "host": socket_module.gethostname(),
            }
        )
        welcome = conn.recv()
        if not isinstance(welcome, dict) or welcome.get("kind") != "welcome":
            reason = (
                welcome.get("reason", "no reason")
                if isinstance(welcome, dict)
                else "connection closed"
            )
            log.error("coordinator rejected us: %s", reason)
            return 1

        directory = cache_dir or welcome.get("cache_dir")
        if not directory:
            log.error("no shared cache directory (welcome advertised none)")
            return 1
        from repro.harness.cache import MeasurementCache

        cache = MeasurementCache(directory)
        plan_text = welcome.get("fault_plan")
        fault_plan = FaultPlan.from_string(plan_text) if plan_text else None

        # Worker telemetry rides this socket; also announces
        # worker_spawned.
        _events.worker_init(_SocketChannel(conn))
        heartbeat = threading.Thread(
            target=_heartbeat_loop,
            args=(conn, float(welcome.get("heartbeat_seconds", 1.0)), stop_heartbeat),
            name="repro-cluster-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        log.info(
            "joined %s:%d as %s (cache %s)",
            host,
            port,
            welcome.get("worker"),
            directory,
        )

        resident: dict[Any, Any] = {}
        while True:
            reply = conn.recv()
            if reply is None or not isinstance(reply, dict):
                log.warning("coordinator hung up")
                return 1
            kind = reply.get("kind")
            if kind == "shutdown":
                break
            if kind != "lease":
                continue
            index = reply["index"]
            fingerprint = str(reply["fingerprint"])
            cache_fingerprint = reply.get("cache_fingerprint") or fingerprint
            attempt = int(reply.get("attempt", 0))
            resident.update(reply.get("graphs") or {})
            cell = resolve_cell(reply["cell"], resident)
            try:
                result, seconds = _attempt_cell(cell, attempt, fault_plan, fingerprint)
                if is_corrupt(result):
                    raise CorruptResultError(
                        f"cell [{cell.key!r}] returned a corrupt result"
                    )
                cache.put(cache_fingerprint, result, seconds)
                conn.send({"kind": "complete", "index": index, "seconds": seconds})
            except Exception as exc:  # noqa: BLE001 — every cell error reports
                conn.send(
                    {"kind": "failed", "index": index, "seconds": 0.0,
                     **_failure_report(exc)}
                )
        try:
            conn.send({"kind": "goodbye"})
        except OSError:
            pass
        return 0
    except (FrameError, OSError) as exc:
        log.error("connection to coordinator failed: %s", exc)
        return 1
    finally:
        stop_heartbeat.set()
        # Leave worker mode: a thread-hosted worker (tests) must hand
        # event routing back to the process, not a closed socket.
        _events.worker_deinit()
        conn.close()


def spawned_main(host: str, port: int, cache_dir: str | None) -> None:
    """Entry point of a local fleet worker process.

    A forked worker inherits the parent's span recorder and event bus;
    both are dropped (worker telemetry goes over the socket), and so is
    SIGINT: the parent owns an interrupted run and terminates its
    workers itself.
    """
    import signal
    import sys

    from repro.obs import spans
    from repro.obs.log import configure

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    spans.disable()
    _events.uninstall()
    configure(0)  # warnings only; the parent owns the console
    sys.exit(run_worker(host, port, cache_dir=cache_dir))
