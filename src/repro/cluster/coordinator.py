"""Lease-based cell coordinator: the plan DAG as a cluster scheduler.

The coordinator owns one sweep's cells and hands them to
socket-connected workers as **leases** — (cell, fingerprint, attempt)
grants that must be renewed by heartbeat and expire on silence.  It is
the scheduler of every pooled sweep (:func:`repro.cluster.executor.
run_fleet`), and it *shares its code* with the serial path of
:mod:`repro.parallel.resilience` wherever the semantics overlap:

* failure accounting (retry budget, deterministic backoff, the
  ``cell_faulted``/``cell_timeout``/``cell_retried`` events, permanent
  failures) goes through :func:`repro.parallel.resilience.
  record_attempt_failure` — a lease that expires or overruns its
  per-cell deadline is charged like any other failed attempt and
  re-queued through the same retry/backoff path;
* a failed attempt's ``failed`` frame carries the worker's exception
  itself (pickled, with the worker traceback attached as a note), so
  the :class:`~repro.parallel.resilience.CellFailedError` a sweep
  raises chains the original exception;
* the serial fallback (:meth:`Coordinator.run_pending_serially`) runs
  :func:`repro.parallel.resilience.run_serial`.

Cells lease from one FIFO queue in submission order; a requeued cell
goes to the front, and a cell backing off before a retry is skipped
until it is eligible.  Each cell costs one frame each way: the first
lease follows ``welcome``, and every ``complete`` or ``failed`` is
answered by the next ``lease`` or by ``shutdown``.  A worker with
nothing eligible is held until the earliest backoff ends, a cell is
requeued or the sweep ends.

The **data plane stays off the wire**: a worker writes its result into
the shared :class:`repro.harness.cache.MeasurementCache` (atomic
tempfile + rename) and sends only the lease's submission index; the
coordinator validates the entry exists and is readable before
accounting the cell complete — a torn or missing write is charged as a
failed attempt.

Results fold by submission order, and a cell that exhausts its retries
raises :class:`~repro.parallel.resilience.CellFailedError` from
:meth:`Coordinator.result` only after every other cell finished — the
same contract :func:`repro.parallel.sweep.run_cells` gives.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from collections import deque
from time import monotonic
from typing import Any, Callable

from repro.obs import events as _events
from repro.obs.log import get_logger
from repro.parallel.faults import FaultPlan
from repro.parallel.resilience import (
    DEFAULT_BIND,
    DEFAULT_LEASE_SECONDS,
    CellTimeoutError,
    CorruptResultError,
    RetryPolicy,
    SweepStats,
    _CellRun,
    cell_runs,
    fold_results,
    record_attempt_failure,
    resolve_policy,
    run_serial,
)
from repro.cluster.shipping import strip_cell
from repro.cluster.wire import PROTOCOL_VERSION, Connection, FrameError

__all__ = ["Coordinator", "RemoteCellError"]

log = get_logger("cluster.coordinator")


class RemoteCellError(RuntimeError):
    """A cell raised on a fleet worker an exception that could not be
    pickled back; carries its type name and the remote traceback."""

    def __init__(self, error: str, message: str, traceback_text: str = "") -> None:
        self.error = error
        self.traceback_text = traceback_text
        super().__init__(f"{error}: {message}")


def _remote_exception(report: dict[str, Any]) -> BaseException:
    """The exception a ``failed`` frame reports, with its worker traceback."""
    traceback_text = str(report.get("traceback", ""))
    try:
        exc = pickle.loads(report["exception"])
        if not isinstance(exc, BaseException):
            raise TypeError(f"not an exception: {exc!r}")
    except Exception:  # noqa: BLE001 — missing or undecodable: fall back
        return RemoteCellError(
            str(report.get("error", "Exception")),
            str(report.get("message", "")),
            traceback_text,
        )
    if traceback_text and hasattr(exc, "add_note"):
        exc.add_note(f"worker traceback:\n{traceback_text}")
    return exc


class _Lease:
    """One granted cell: ``expires`` is renewed by heartbeats, ``deadline``
    (the policy's ``cell_timeout`` from grant time) is not."""

    __slots__ = ("task", "worker", "granted", "expires", "deadline")

    def __init__(
        self, task: _CellRun, worker: str, now: float, ttl: float, timeout: float | None
    ) -> None:
        self.task = task
        self.worker = worker
        self.granted = now
        self.expires = now + ttl
        self.deadline = None if timeout is None else now + timeout


class _WorkerState:
    """One connected worker; ``wedged`` once a cell it holds overran its
    deadline (the fleet replaces such a worker and reports it)."""

    __slots__ = ("name", "conn", "shipped", "pid", "host", "wedged")

    def __init__(self, name: str, conn: Connection) -> None:
        self.name = name
        self.conn = conn
        self.shipped: set = set()
        self.pid = 0
        self.host = ""
        self.wedged = False


class Coordinator:
    """Lease one sweep's cells to a fleet of socket workers.

    ``cells`` are sweep cells in submission order; ``cache`` is the
    shared :class:`~repro.harness.cache.MeasurementCache` both sides
    can reach (its ``directory`` is advertised to joining workers).
    ``result_fingerprints`` maps sweep fingerprints to the content
    fingerprints workers write results under.  ``policy``/
    ``fault_plan``/``stats`` behave exactly as in
    :func:`repro.parallel.sweep.run_cells`; ``note(name, seconds)``
    receives the ``cell[key]``/``retry[key]`` timings.
    ``lease_seconds`` bounds how long a silent worker holds a cell.
    """

    def __init__(
        self,
        cells: list,
        *,
        cache,
        result_fingerprints: dict[str, str] | None = None,
        label: str = "plan",
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        stats: SweepStats | None = None,
        note: Callable[[str, float], None] | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        bind: tuple[str, int] = DEFAULT_BIND,
    ) -> None:
        self.cells = cells
        self.cache = cache
        self.label = label
        self.plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.policy = resolve_policy(policy, self.plan)
        self.stats = stats if stats is not None else SweepStats()
        self.note = note if note is not None else (lambda name, seconds: None)
        self.lease_seconds = lease_seconds
        self._bind = bind

        self._lock = threading.RLock()
        # Signalled whenever the queue gains a task or the sweep ends:
        # wakes wait() and workers held for their next lease.
        self._done = threading.Condition(self._lock)
        self.outcomes: dict[int, Any] = {}
        self.failures: list[tuple[_CellRun, BaseException]] = []
        self._leases: dict[int, _Lease] = {}  # submission index -> lease
        self._workers: dict[str, _WorkerState] = {}
        self._wedged: list[int] = []  # pids of workers past a cell deadline
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._closing = False
        self.address: tuple[str, int] | None = None

        self.stats.cells += len(cells)
        self._queue: deque[_CellRun] = deque(cell_runs(cells, result_fingerprints))
        self._remaining = len(self._queue)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def listen(self) -> tuple[str, int]:
        """Bind and listen (no threads yet); return ``(host, port)``.

        Workers may dial as soon as this returns — the backlog holds
        them until :meth:`start` accepts — so local workers can be
        forked before the coordinator becomes multi-threaded.
        """
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self._bind)
            listener.listen(64)
            self._listener = listener
            self.address = listener.getsockname()[:2]
        return self.address

    def start(self) -> tuple[str, int]:
        """Listen, start accepting and expiring; return ``(host, port)``."""
        address = self.listen()
        accept = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        )
        accept.start()
        monitor = threading.Thread(
            target=self._expiry_loop, name="repro-cluster-leases", daemon=True
        )
        monitor.start()
        self._threads += [accept, monitor]
        log.info(
            "%s: coordinator listening on %s:%d (%d cell(s))",
            self.label,
            *address,
            self._remaining,
        )
        return address

    def done(self) -> bool:
        with self._lock:
            return self._remaining == 0

    def connected_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    def queued(self) -> int:
        """Cells waiting for a lease (not counting leased ones)."""
        with self._lock:
            return len(self._queue)

    def take_wedged(self) -> list[int]:
        """Pids of workers whose cell overran its deadline since the last
        call; their cells are already charged, the processes are stuck."""
        with self._lock:
            wedged, self._wedged = self._wedged, []
            return wedged

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every cell completed or permanently failed."""
        deadline = None if timeout is None else monotonic() + timeout
        with self._done:
            while self._remaining:
                remaining = None if deadline is None else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._done.wait(timeout=remaining if remaining is not None else 0.5)
        return True

    def result(self) -> dict[Any, Any]:
        """``{cell.key: result}`` in submission order, or raise
        :class:`~repro.parallel.resilience.CellFailedError` naming the
        first permanently failed cell and chaining its cause."""
        with self._lock:
            return fold_results(self.cells, self.outcomes, self.failures)

    def run_pending_serially(self) -> int:
        """The fleet is gone: run every queued cell in this process, in
        submission order.

        Attempts continue where the fleet left them, with the same
        retry accounting; results are cached here, by the process that
        computed them.  Leased cells are left to their workers.  Returns
        how many cells were drained.
        """
        with self._lock:
            tasks = sorted(self._queue, key=lambda task: task.index)
            self._queue.clear()
            self._remaining -= len(tasks)
            if not self._remaining:
                self._done.notify_all()

        def complete(task: _CellRun, result: Any, seconds: float) -> None:
            with self._lock:
                self._record_outcome(task, result, seconds)
            self.cache.put(task.cache_fingerprint or task.fingerprint, result, seconds)

        def fail(task: _CellRun, exc: BaseException, elapsed: float) -> bool:
            with self._lock:
                return record_attempt_failure(
                    task, exc, elapsed, policy=self.policy, stats=self.stats,
                    note=self.note, failures=self.failures, label=self.label,
                )

        run_serial(tasks, self.plan, complete=complete, fail=fail)
        return len(tasks)

    def close(self, grace: float = 2.0) -> None:
        """Stop accepting, drop every connection, wake every waiter, and
        join the coordinator's threads.

        After a finished sweep, connected workers are given ``grace``
        seconds to pick up their ``shutdown`` and leave on their own, so
        a clean run ends in goodbyes rather than EOFs.
        Joining leaves the process single-threaded again, so the next
        sweep's workers fork from a process without threads.
        """
        if grace > 0 and self.done():
            deadline = monotonic() + grace
            while monotonic() < deadline:
                with self._lock:
                    if not self._workers:
                        break
                time.sleep(0.02)
        with self._lock:
            self._closing = True
            workers = list(self._workers.values())
            self._done.notify_all()
        if self._listener is not None:
            try:
                # shutdown wakes the accept() blocked in another thread;
                # close alone leaves it blocked.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        for worker in workers:
            worker.conn.close()
        deadline = monotonic() + 2.0
        for thread in list(self._threads):
            if thread is not threading.current_thread():
                thread.join(timeout=max(0.0, deadline - monotonic()))

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _requeue(self, task: _CellRun) -> None:
        self._queue.appendleft(task)
        self._done.notify_all()

    def _record_outcome(self, task: _CellRun, result: Any, seconds: float) -> None:
        self.outcomes[task.index] = result
        self.stats.completed += 1
        self.note(f"cell[{task.cell.key}]", seconds)

    def _finish_one(self) -> None:
        self._remaining -= 1
        if not self._remaining:
            self._done.notify_all()

    def _pop_task(self, now: float) -> _CellRun | None:
        """The first queued task not backing off, or ``None``."""
        for position, task in enumerate(self._queue):
            if task.not_before <= now:
                del self._queue[position]
                return task
        return None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(Connection(sock),),
                name="repro-cluster-conn",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: Connection) -> None:
        worker: _WorkerState | None = None
        clean = False
        try:
            hello = conn.recv()
            if not isinstance(hello, dict) or hello.get("kind") != "hello":
                conn.send({"kind": "reject", "reason": "expected hello"})
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                conn.send(
                    {
                        "kind": "reject",
                        "reason": f"protocol {hello.get('protocol')!r} != "
                        f"{PROTOCOL_VERSION}",
                    }
                )
                return
            name = str(hello.get("worker") or f"worker@{conn.peer}")
            with self._lock:
                if self._closing:
                    conn.send({"kind": "reject", "reason": "coordinator closing"})
                    return
                if name in self._workers:
                    name = f"{name}@{conn.peer}"
                worker = _WorkerState(name, conn)
                worker.pid = int(hello.get("pid") or 0)
                worker.host = str(hello.get("host") or "")
                self._workers[name] = worker
            conn.send(
                {
                    "kind": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "worker": name,
                    "label": self.label,
                    "cache_dir": getattr(self.cache, "directory", None),
                    "lease_seconds": self.lease_seconds,
                    "heartbeat_seconds": max(self.lease_seconds / 4.0, 0.05),
                    "fault_plan": self.plan.to_string() if self.plan else None,
                }
            )
            _events.emit(
                "worker_joined",
                worker=name,
                pid=worker.pid,
                host=worker.host,
                address=conn.peer,
            )
            log.info("%s: worker %s joined", self.label, name)
            # One frame each way per cell: the first lease follows the
            # welcome, and each report is answered by the next lease or
            # by shutdown.  After shutdown the connection is still read
            # until goodbye or EOF, so no trailing event frame is lost.
            clean = self._grant(worker)
            while True:
                message = conn.recv()
                if message is None:
                    return
                if not isinstance(message, dict):
                    continue
                kind = message.get("kind")
                if kind in ("complete", "failed"):
                    self._on_report(worker, message)
                    clean = self._grant(worker)
                elif kind == "heartbeat":
                    self._on_heartbeat(worker)
                elif kind == "event":
                    bus = _events.current_bus()
                    payload = message.get("message")
                    if bus is not None and isinstance(payload, dict):
                        bus.ingest(payload)
                elif kind == "goodbye":
                    clean = True
                    return
        except (FrameError, OSError) as exc:
            log.warning(
                "%s: connection %s dropped: %s", self.label, conn.peer, exc
            )
        finally:
            conn.close()
            if worker is not None:
                self._release_worker(worker, clean=clean)

    def _grant(self, worker: _WorkerState) -> bool:
        """Send ``worker`` its next lease, or ``shutdown`` once the sweep
        is over or closing; True when it was told to shut down.

        With nothing eligible the worker is held: the earliest backoff's
        end, a requeue, the sweep's end or close wakes it, so no worker
        sleeps through the moment it is needed.
        """
        with self._lock:
            while True:
                if self._closing or self._remaining == 0:
                    try:
                        worker.conn.send({"kind": "shutdown"})
                    except OSError:
                        pass
                    return True
                now = monotonic()
                task = self._pop_task(now)
                if task is not None:
                    break
                soonest = min((run.not_before for run in self._queue), default=None)
                self._done.wait(None if soonest is None else soonest - now)
            lease = _Lease(
                task, worker.name, now, self.lease_seconds, self.policy.cell_timeout
            )
            self._leases[task.index] = lease
            cell, graphs = strip_cell(task.cell, worker.shipped)
        message = {
            "kind": "lease",
            "index": task.index,
            "cell": cell,
            "graphs": graphs,
            "fingerprint": task.fingerprint,
            "cache_fingerprint": task.cache_fingerprint,
            "attempt": task.attempt,
        }
        try:
            frame_bytes = worker.conn.send(message)
        except OSError:
            # The connection died under us; its cleanup path requeues.
            with self._lock:
                if self._leases.get(task.index) is lease:
                    del self._leases[task.index]
                    self._requeue(task)
            return False
        _events.emit(
            "lease_granted",
            cell=task.cell.key,
            fingerprint=task.fingerprint,
            attempt=task.attempt,
            worker=worker.name,
            lease_seconds=self.lease_seconds,
            frame_bytes=frame_bytes,
            graph_shipped=bool(graphs),
        )
        return False

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def _take_lease(self, worker: _WorkerState, index: Any) -> _Lease | None:
        with self._lock:
            lease = self._leases.get(index)
            if lease is None or lease.worker != worker.name:
                return None  # expired (and possibly re-leased); stale reply
            del self._leases[index]
            return lease

    def _on_report(self, worker: _WorkerState, message: dict[str, Any]) -> None:
        """Settle a ``complete`` or ``failed`` report.  A report for a
        lease that expired (and was perhaps re-leased) counts nothing."""
        lease = self._take_lease(worker, message.get("index"))
        if lease is None:
            return
        task = lease.task
        if message.get("kind") == "failed":
            self._charge(
                task, _remote_exception(message), float(message.get("seconds", 0.0))
            )
            return
        entry = self.cache.get(task.cache_fingerprint or task.fingerprint)
        if entry is None:
            # The worker claims success but the shared cache has no
            # readable entry — a torn write, a lost filesystem, or a
            # worker writing to the wrong directory.  Charge the attempt
            # and retry elsewhere.
            exc = CorruptResultError(
                f"cell [{task.cell.key!r}] completed by {worker.name} but its "
                f"result is unreadable in the shared cache"
            )
            self._charge(task, exc, float(message.get("seconds", 0.0)))
            return
        seconds = float(message.get("seconds", entry.seconds))
        with self._lock:
            self._record_outcome(task, entry.result, seconds)
            self._finish_one()
        _events.emit(
            "lease_completed",
            cell=task.cell.key,
            fingerprint=task.fingerprint,
            attempt=task.attempt,
            worker=worker.name,
            seconds=seconds,
            lease_age=monotonic() - lease.granted,
        )

    def _on_heartbeat(self, worker: _WorkerState) -> None:
        now = monotonic()
        with self._lock:
            for lease in self._leases.values():
                if lease.worker == worker.name:
                    lease.expires = now + self.lease_seconds

    def _charge(self, task: _CellRun, exc: BaseException, elapsed: float) -> None:
        """One failed attempt through the shared engine accounting."""
        with self._lock:
            retried = record_attempt_failure(
                task,
                exc,
                elapsed,
                policy=self.policy,
                stats=self.stats,
                note=self.note,
                failures=self.failures,
                label=self.label,
            )
            if retried:
                self._requeue(task)
            else:
                self._finish_one()

    def _release_worker(self, worker: _WorkerState, *, clean: bool) -> None:
        """Drop a departed worker; requeue its leases without charging.

        A vanished worker (SIGKILL, OOM, network) surfaces as EOF here
        well before its leases expire; the in-flight cells go back to
        the queue uncharged — retries are for *cell* failures, crash
        recovery is free.  (A worker that hangs without dying keeps its
        connection; that case is the expiry monitor's.)  A wedged
        worker's EOF is the fleet replacing it, which ``worker_replaced``
        reports, so it is not also reported lost.
        """
        with self._lock:
            self._workers.pop(worker.name, None)
            requeued = []
            for index, lease in list(self._leases.items()):
                if lease.worker == worker.name:
                    del self._leases[index]
                    self._requeue(lease.task)
                    requeued.append(lease.task.cell.key)
            closing = self._closing
        if (clean or worker.wedged) and not requeued:
            log.info("%s: worker %s left", self.label, worker.name)
            return
        if closing:
            return
        _events.emit(
            "worker_lost",
            worker=worker.name,
            reason="disconnect",
            requeued=len(requeued),
        )
        log.warning(
            "%s: worker %s lost; requeued %d leased cell(s)",
            self.label,
            worker.name,
            len(requeued),
        )

    # ------------------------------------------------------------------
    # lease expiry and cell deadlines
    # ------------------------------------------------------------------
    def _expiry_loop(self) -> None:
        interval = min(self.lease_seconds / 4.0, 0.5)
        if self.policy.cell_timeout is not None:
            interval = min(interval, self.policy.cell_timeout / 4.0)
        interval = max(interval, 0.01)
        while True:
            with self._lock:
                if self._closing or (self._remaining == 0 and not self._leases):
                    return
                self._done.wait(interval)  # the sweep's end or close wakes it
            self._expire_leases()

    def _expire_leases(self) -> None:
        now = monotonic()
        overrun: list[_Lease] = []
        expired: list[_Lease] = []
        with self._lock:
            for index, lease in list(self._leases.items()):
                if lease.deadline is not None and now >= lease.deadline:
                    overrun.append(lease)
                elif now >= lease.expires:
                    expired.append(lease)
                else:
                    continue
                del self._leases[index]
        for lease in overrun:
            # The worker is still busy on the cell (and heartbeating):
            # the fleet terminates and replaces it (take_wedged).  Marked
            # before the charge, which may end the sweep and wake the
            # fleet's last take_wedged call.
            with self._lock:
                worker = self._workers.get(lease.worker)
                if worker is not None and worker.pid:
                    worker.wedged = True
                    self._wedged.append(worker.pid)
            self._charge(
                lease.task,
                CellTimeoutError(
                    f"cell [{lease.task.cell.key!r}] exceeded its "
                    f"{self.policy.cell_timeout:g}s deadline"
                ),
                now - lease.granted,
            )
        for lease in expired:
            task = lease.task
            _events.emit(
                "lease_expired",
                cell=task.cell.key,
                fingerprint=task.fingerprint,
                attempt=task.attempt,
                worker=lease.worker,
                lease_age=now - lease.granted,
            )
            # An expired lease is a hung (or hopelessly slow) worker:
            # charged exactly like a cell that overran its deadline,
            # feeding the same retry/backoff machinery.
            self._charge(
                task,
                CellTimeoutError(
                    f"cell [{task.cell.key!r}] lease on {lease.worker} expired "
                    f"after {self.lease_seconds:g}s without a heartbeat"
                ),
                now - lease.granted,
            )
