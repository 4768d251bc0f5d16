"""Lease-based cell coordinator: the plan DAG as a cluster scheduler.

The coordinator owns one plan execution's miss cells and hands them to
socket-connected workers as **leases** — (cell, fingerprint, attempt)
grants that must be renewed by heartbeat and expire on silence.  The
design mirrors the in-process engine (:class:`repro.parallel.
resilience._Engine`) wherever semantics overlap, and *shares its code*
where the repo already has it:

* failure accounting (retry budget, deterministic backoff, the
  ``cell_faulted``/``cell_timeout``/``cell_retried`` events, permanent
  failures) goes through :func:`repro.parallel.resilience.
  record_attempt_failure` — a lease that expires is charged exactly
  like a timed-out pool cell and re-queued through the same
  retry/backoff path;
* checkpoint skip/record uses the same duck-typed recorder the local
  path uses, so resuming a half-distributed run locally (or vice
  versa) just works;
* lease ordering is locality-aware through
  :func:`~repro.parallel.scheduling.cell_affinity` /
  :func:`~repro.parallel.scheduling.affinity_lanes`: cells sharing a
  graph lease to the same worker, so each graph ships once and stays
  resident (:mod:`repro.cluster.shipping`).

The **data plane stays off the wire**: a worker writes its result into
the shared :class:`repro.harness.cache.MeasurementCache` (atomic
tempfile + rename) and sends only the fingerprint; the coordinator
validates the entry exists and readable before accounting the cell
complete — a torn or missing write is charged as a failed attempt.

Results fold by submission order, and a cell that exhausts its retries
raises :class:`~repro.parallel.resilience.CellFailedError` from
:meth:`Coordinator.wait` only after every other cell finished — the
same contract :func:`repro.parallel.sweep.run_cells` gives.
"""

from __future__ import annotations

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
    CellFailedError,
    CellTimeoutError,
    CorruptResultError,
    RetryPolicy,
    SweepStats,
    record_attempt_failure,
    resolve_policy,
)
from repro.parallel.scheduling import affinity_lanes, cell_affinity
from repro.cluster.shipping import strip_cell
from repro.cluster.wire import PROTOCOL_VERSION, Connection, FrameError
from repro.utils.fingerprint import cell_fingerprint

__all__ = ["Coordinator", "RemoteCellError"]

log = get_logger("cluster.coordinator")


class RemoteCellError(RuntimeError):
    """A cell raised on a fleet worker; carries the remote traceback."""

    def __init__(self, error: str, message: str, traceback_text: str = "") -> None:
        self.error = error
        self.traceback_text = traceback_text
        super().__init__(f"{error}: {message}")


#: Worker-reported failure kinds mapped back onto the exception types
#: the shared failure accounting distinguishes (fault-injection and
#: timeout counters).
def _remote_exception(report: dict[str, Any]) -> BaseException:
    from repro.parallel.faults import InjectedCrash, InjectedTimeout

    kinds: dict[str, Callable[[str], BaseException]] = {
        "injected_crash": InjectedCrash,
        "injected_timeout": InjectedTimeout,
        "corrupt": CorruptResultError,
    }
    kind = report.get("error_kind", "error")
    message = str(report.get("message", ""))
    if kind in kinds:
        return kinds[kind](message)
    return RemoteCellError(
        str(report.get("error", "Exception")),
        message,
        str(report.get("traceback", "")),
    )


class _LeaseTask:
    """Mutable scheduling state of one cell (the fleet's ``_CellRun``)."""

    __slots__ = (
        "index",
        "cell",
        "fingerprint",
        "cache_fingerprint",
        "attempt",
        "not_before",
        "lane",
    )

    def __init__(
        self, index: int, cell, fingerprint: str, cache_fingerprint: str | None
    ) -> None:
        self.index = index
        self.cell = cell
        self.fingerprint = fingerprint
        self.cache_fingerprint = cache_fingerprint
        self.attempt = 0
        self.not_before = 0.0
        self.lane = 0


class _Lease:
    __slots__ = ("task", "worker", "granted", "expires")

    def __init__(self, task: _LeaseTask, worker: str, now: float, ttl: float) -> None:
        self.task = task
        self.worker = worker
        self.granted = now
        self.expires = now + ttl


class _WorkerState:
    __slots__ = ("name", "conn", "lane", "shipped", "pid", "host")

    def __init__(self, name: str, conn: Connection, lane: int) -> None:
        self.name = name
        self.conn = conn
        self.lane = lane
        self.shipped: set = set()
        self.pid = 0
        self.host = ""


class Coordinator:
    """Lease one plan's cells to a fleet of socket workers.

    ``cells`` are sweep cells in submission order; ``cache`` is the
    shared :class:`~repro.harness.cache.MeasurementCache` both sides
    can reach (its ``directory`` is advertised to joining workers).
    ``result_fingerprints`` maps sweep fingerprints to the content
    fingerprints workers write results under.  ``checkpoint`` is the
    plan layer's duck-typed recorder; ``policy``/``fault_plan``/
    ``stats`` behave exactly as in :func:`repro.parallel.sweep.
    run_cells`.  ``expected_workers`` sizes the affinity lanes;
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
        checkpoint=None,
        stats: SweepStats | None = None,
        note: Callable[[str, float], None] | None = None,
        expected_workers: int = 1,
        lease_seconds: float = 30.0,
        bind: tuple[str, int] = ("127.0.0.1", 0),
    ) -> None:
        self.cells = cells
        self.cache = cache
        self.label = label
        self.plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.policy = resolve_policy(policy, self.plan)
        self.checkpoint = checkpoint
        self.stats = stats if stats is not None else SweepStats()
        self.note = note if note is not None else (lambda name, seconds: None)
        self.expected_workers = max(1, expected_workers)
        self.lease_seconds = lease_seconds
        self._bind = bind
        self._fingerprints = dict(result_fingerprints or {})

        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self.outcomes: dict[int, Any] = {}
        self.failures: list[tuple[_LeaseTask, BaseException]] = []
        self._leases: dict[str, _Lease] = {}  # sweep fingerprint -> lease
        self._workers: dict[str, _WorkerState] = {}
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._closing = False
        self.address: tuple[str, int] | None = None

        self.stats.cells += len(cells)
        runs: list[_LeaseTask] = []
        for index, cell in enumerate(cells):
            fingerprint = cell_fingerprint(cell.fn, cell.key, cell.args, cell.kwargs)
            if self.checkpoint is not None and self.checkpoint.has(fingerprint):
                record = self.checkpoint.result_for(fingerprint)
                self.outcomes[index] = record.result
                self.stats.resumed += 1
                self.note(f"resumed[{cell.key}]", record.seconds)
                resumed_payload: dict = {"seconds": record.seconds}
                gail = _events.gail_payload(record.result)
                if gail is not None:
                    resumed_payload["gail"] = gail
                _events.emit(
                    "checkpoint_resumed",
                    cell=cell.key,
                    fingerprint=fingerprint,
                    **resumed_payload,
                )
                continue
            runs.append(
                _LeaseTask(
                    index, cell, fingerprint, self._fingerprints.get(fingerprint)
                )
            )
        if self.stats.resumed:
            log.info(
                "%s: resumed %d of %d cells from checkpoint",
                self.label,
                self.stats.resumed,
                len(self.cells),
            )

        # Locality-aware lease ordering: affinity lanes sized to the
        # expected fleet.  A worker drains its own lane first and steals
        # from the fullest other lane when dry, so co-located graphs stay
        # co-located without ever idling a worker.
        self._lanes: list[deque[_LeaseTask]] = [
            deque() for _ in range(self.expected_workers)
        ]
        if runs:
            hints = cell_affinity([task.cell for task in runs])
            lanes = affinity_lanes(hints, self.expected_workers)
            for lane_index, lane in enumerate(lanes):
                for cell_index in lane:
                    task = runs[cell_index]
                    task.lane = lane_index
                    self._lanes[lane_index].append(task)
            populated = sum(1 for lane in lanes if lane)
            _events.emit(
                "affinity_assigned",
                cell=self.label,
                cells=len(runs),
                groups=len({key for key, _ in hints}),
                lanes=populated,
                workers=self.expected_workers,
            )
        self._remaining = len(runs)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, listen, and return the dialable ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._bind)
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()[:2]
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
            "%s: coordinator listening on %s:%d (%d cell(s), %d lane(s))",
            self.label,
            *self.address,
            self._remaining,
            self.expected_workers,
        )
        return self.address

    def done(self) -> bool:
        with self._lock:
            return self._remaining == 0

    def connected_workers(self) -> int:
        with self._lock:
            return len(self._workers)

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
        """``{cell.key: result}`` in submission order, or raise.

        Exactly the engine's contract: :class:`CellFailedError` names
        the first permanently failed cell and chains its (remote)
        cause, after every other cell had its chance.
        """
        with self._lock:
            if self.failures:
                first_task, first_exc = self.failures[0]
                raise CellFailedError(
                    first_task.cell.key,
                    first_task.attempt + 1,
                    first_exc,
                    also_failed=[task.cell.key for task, _ in self.failures[1:]],
                ) from first_exc
            return {
                cell.key: self.outcomes[index]
                for index, cell in enumerate(self.cells)
                if index in self.outcomes
            }

    def drain_pending(self) -> list:
        """Remove and return not-yet-completed cells in submission order.

        The serial-fallback path: when the fleet is gone for good the
        executor runs what is left in-process, mirroring the pool
        engine's degradation.  Leased cells are *not* drained — their
        workers may still complete them — only queued ones.
        """
        with self._lock:
            tasks = sorted(
                (task for lane in self._lanes for task in lane),
                key=lambda task: task.index,
            )
            for lane in self._lanes:
                lane.clear()
            self._remaining -= len(tasks)
            if not self._remaining:
                self._done.notify_all()
            return [task.cell for task in tasks]

    def absorb(self, outcomes: dict[Any, Any]) -> None:
        """Fold serial-fallback results back in (keyed by cell key)."""
        with self._lock:
            for index, cell in enumerate(self.cells):
                if index not in self.outcomes and cell.key in outcomes:
                    self.outcomes[index] = outcomes[cell.key]

    def close(self, grace: float = 2.0) -> None:
        """Stop accepting, drop every connection, wake every waiter.

        After a finished plan, connected workers are given ``grace``
        seconds to pick up their ``shutdown`` reply and leave on their
        own, so a clean run ends in goodbyes rather than mid-ack EOFs.
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
                self._listener.close()
            except OSError:
                pass
        for worker in workers:
            worker.conn.close()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _pop_task(self, lane_index: int, now: float) -> _LeaseTask | None:
        """Next eligible task: own lane front, else steal a fullest-lane
        tail (keeps the victim lane's locality run intact)."""
        lane = self._lanes[lane_index % len(self._lanes)]
        for _ in range(len(lane)):
            task = lane.popleft()
            if task.not_before <= now:
                return task
            lane.append(task)
        order = sorted(
            (i for i in range(len(self._lanes)) if i != lane_index % len(self._lanes)),
            key=lambda i: -len(self._lanes[i]),
        )
        for index in order:
            other = self._lanes[index]
            for _ in range(len(other)):
                task = other.pop()
                if task.not_before <= now:
                    return task
                other.appendleft(task)
        return None

    def _retry_after(self, now: float) -> float:
        """How long an idle worker should wait before asking again."""
        queued = [task.not_before for lane in self._lanes for task in lane]
        if queued:
            return min(max(0.0, min(queued) - now) + 0.005, 0.25)
        return 0.05  # everything in flight; completions may requeue

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
                # Spread joiners across lanes: each takes the least-
                # crowded lane so lane k's graphs land on one worker
                # until the fleet outgrows the lanes.
                crowd = {index: 0 for index in range(len(self._lanes))}
                for state in self._workers.values():
                    crowd[state.lane] = crowd.get(state.lane, 0) + 1
                lane = min(
                    crowd,
                    key=lambda index: (crowd[index], -len(self._lanes[index]), index),
                )
                if name in self._workers:
                    name = f"{name}@{conn.peer}"
                worker = _WorkerState(name, conn, lane)
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
                lane=worker.lane,
            )
            log.info("%s: worker %s joined (lane %d)", self.label, name, worker.lane)
            while True:
                message = conn.recv()
                if message is None:
                    return
                if not isinstance(message, dict):
                    continue
                kind = message.get("kind")
                if kind == "lease_request":
                    if not self._grant(worker):
                        clean = self.done()
                        if clean or self._closing:
                            return
                elif kind == "complete":
                    self._on_complete(worker, message)
                elif kind == "failed":
                    self._on_failed(worker, message)
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
        """Lease the next cell to ``worker``; False when none granted."""
        now = monotonic()
        with self._lock:
            if self._closing:
                try:
                    worker.conn.send({"kind": "shutdown"})
                except OSError:
                    pass
                return False
            task = self._pop_task(worker.lane, now)
            if task is None:
                if self._remaining == 0:
                    try:
                        worker.conn.send({"kind": "shutdown"})
                    except OSError:
                        pass
                    return False
                try:
                    worker.conn.send(
                        {"kind": "idle", "retry_after": self._retry_after(now)}
                    )
                except OSError:
                    pass
                return True
            lease = _Lease(task, worker.name, now, self.lease_seconds)
            self._leases[task.fingerprint] = lease
            cell, graphs = strip_cell(task.cell, worker.shipped)
        message = {
            "kind": "lease",
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
                if self._leases.get(task.fingerprint) is lease:
                    del self._leases[task.fingerprint]
                    self._lanes[task.lane].appendleft(task)
            return True
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
        return True

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def _take_lease(self, worker: _WorkerState, fingerprint: str) -> _Lease | None:
        with self._lock:
            lease = self._leases.get(fingerprint)
            if lease is None or lease.worker != worker.name:
                return None  # expired (and possibly re-leased); stale reply
            del self._leases[fingerprint]
            return lease

    def _on_complete(self, worker: _WorkerState, message: dict[str, Any]) -> None:
        fingerprint = str(message.get("fingerprint"))
        lease = self._take_lease(worker, fingerprint)
        if lease is None:
            self._ack(worker, fingerprint, duplicate=True)
            return
        task = lease.task
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
            self._ack(worker, fingerprint)
            return
        seconds = float(message.get("seconds", entry.seconds))
        with self._lock:
            self.outcomes[task.index] = entry.result
            self.stats.completed += 1
            self.note(f"cell[{task.cell.key}]", seconds)
            if self.checkpoint is not None:
                self.checkpoint.record(
                    task.fingerprint, task.cell.key, entry.result, seconds
                )
            self._remaining -= 1
            if not self._remaining:
                self._done.notify_all()
        _events.emit(
            "lease_completed",
            cell=task.cell.key,
            fingerprint=task.fingerprint,
            attempt=task.attempt,
            worker=worker.name,
            seconds=seconds,
            lease_age=monotonic() - lease.granted,
        )
        self._ack(worker, fingerprint)

    def _on_failed(self, worker: _WorkerState, message: dict[str, Any]) -> None:
        fingerprint = str(message.get("fingerprint"))
        lease = self._take_lease(worker, fingerprint)
        if lease is not None:
            self._charge(
                lease.task,
                _remote_exception(message),
                float(message.get("seconds", 0.0)),
            )
        self._ack(worker, fingerprint, duplicate=lease is None)

    def _ack(self, worker: _WorkerState, fingerprint: str, duplicate=False) -> None:
        try:
            worker.conn.send(
                {"kind": "ack", "fingerprint": fingerprint, "duplicate": duplicate}
            )
        except OSError:
            pass

    def _on_heartbeat(self, worker: _WorkerState) -> None:
        now = monotonic()
        with self._lock:
            for lease in self._leases.values():
                if lease.worker == worker.name:
                    lease.expires = now + self.lease_seconds

    def _charge(self, task: _LeaseTask, exc: BaseException, elapsed: float) -> None:
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
                self._lanes[task.lane].append(task)
            else:
                self._remaining -= 1
                if not self._remaining:
                    self._done.notify_all()

    def _release_worker(self, worker: _WorkerState, *, clean: bool) -> None:
        """Drop a departed worker; requeue its leases without charging.

        A vanished worker (SIGKILL, OOM, network) surfaces as EOF here
        well before its leases expire; mirroring the engine's broken-
        pool path, the in-flight cells go back to the queue uncharged —
        retries are for *cell* failures, crash recovery is free.  (A
        worker that hangs without dying keeps its connection; that case
        is the expiry monitor's.)
        """
        with self._lock:
            self._workers.pop(worker.name, None)
            requeued = []
            for fingerprint, lease in list(self._leases.items()):
                if lease.worker == worker.name:
                    del self._leases[fingerprint]
                    self._lanes[lease.task.lane].appendleft(lease.task)
                    requeued.append(lease.task.cell.key)
            closing = self._closing
        if clean and not requeued:
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
    # lease expiry
    # ------------------------------------------------------------------
    def _expiry_loop(self) -> None:
        interval = min(max(self.lease_seconds / 4.0, 0.02), 0.5)
        while True:
            with self._lock:
                if self._closing or (self._remaining == 0 and not self._leases):
                    return
            self._expire_leases()
            time.sleep(interval)

    def _expire_leases(self) -> None:
        now = monotonic()
        expired: list[_Lease] = []
        with self._lock:
            for fingerprint, lease in list(self._leases.items()):
                if now >= lease.expires:
                    del self._leases[fingerprint]
                    expired.append(lease)
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
            # charged exactly like a pool cell that overran its
            # deadline, feeding the same retry/backoff machinery.
            self._charge(
                task,
                CellTimeoutError(
                    f"cell [{task.cell.key!r}] lease on {lease.worker} expired "
                    f"after {self.lease_seconds:g}s without a heartbeat"
                ),
                now - lease.granted,
            )
