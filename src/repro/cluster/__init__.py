"""Pooled plan execution: the cell DAG as a cluster scheduler.

The paper's blocking insight — batch work by destination so
communication amortizes — applied to the harness itself.  A
:class:`~repro.cluster.coordinator.Coordinator` leases a sweep's cells
to socket-connected workers (:mod:`repro.cluster.worker`, ``repro-pb
worker``) from one FIFO queue in submission order, one frame each way
per cell, and each graph ships over the wire at most once per worker
(:mod:`repro.cluster.shipping`).  Results travel through the shared,
atomically-written :class:`repro.harness.cache.MeasurementCache`;
worker death or hang is recovered through heartbeat-expiring leases,
per-cell deadlines and worker respawns feeding the sweep engine's
retry/backoff accounting.

This is the scheduler of every pooled run: :func:`run_fleet` is what
:func:`repro.parallel.sweep.run_cells` calls for ``workers >= 2``, so
``repro-pb reproduce --workers 4`` runs the exact plan a serial run
would, byte-identical artifacts included, on four local worker
processes — plus any external ``repro-pb worker`` that dials a fixed
``--bind`` port.  Everything is stdlib: ``socket`` + ``struct`` framing
(:mod:`repro.cluster.wire`), pickled plain-data messages, no new
dependencies.
"""

from repro.cluster.coordinator import Coordinator, RemoteCellError
from repro.cluster.executor import run_fleet
from repro.cluster.shipping import GraphTicket, resolve_cell, strip_cell
from repro.cluster.wire import (
    PROTOCOL_VERSION,
    Connection,
    FrameError,
    parse_endpoint,
)
from repro.cluster.worker import run_worker

__all__ = [
    "Coordinator",
    "run_fleet",
    "RemoteCellError",
    "GraphTicket",
    "strip_cell",
    "resolve_cell",
    "Connection",
    "FrameError",
    "PROTOCOL_VERSION",
    "parse_endpoint",
    "run_worker",
]
