"""Socket framing for the cell fleet: length-prefixed pickled dicts.

The cluster protocol is deliberately minimal — stdlib only (``socket`` +
``struct`` + ``pickle``), one frame per message, no streaming state:

* a frame is ``!Q`` (8-byte big-endian length) followed by a pickled
  payload, which every message keeps a plain picklable object (dicts of
  scalars, plus sweep cells and their plain-data arguments);
* the **data plane never rides the wire**: results travel through the
  shared :class:`repro.harness.cache.MeasurementCache` directory, so
  frames stay small except when a graph argument ships the first time
  (see :mod:`repro.cluster.shipping`);
* pickle implies *trust*: anyone who can reach the coordinator port can
  execute code in the fleet, exactly like anyone who can write the
  shared cache directory.  The coordinator binds loopback by default;
  bind wider only on networks that already share the cache filesystem
  (``docs/distributed.md``).

:class:`Connection` serialises concurrent senders with a lock (a
worker's heartbeat and telemetry threads share its socket) while
receiving stays single-consumer — each side reads frames from one
thread only, so request/reply ordering needs no correlation ids.
"""

from __future__ import annotations

import argparse
import pickle
import socket
import struct
import threading
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "Connection",
    "FrameError",
    "endpoint_argument",
    "parse_endpoint",
]

#: Bumped when the frame or message vocabulary changes incompatibly;
#: checked in the hello/welcome handshake.  2: leases, ``complete``,
#: ``failed`` and ``ack`` name the cell by submission ``index``, and
#: ``failed`` carries the pickled exception.  3: one frame each way per
#: cell — the first lease follows ``welcome`` and each ``complete`` or
#: ``failed`` is answered by the next ``lease`` or ``shutdown``, so
#: the worker's lease requests and the coordinator's acks and idle
#: replies are gone.
PROTOCOL_VERSION = 3

_HEADER = struct.Struct("!Q")

#: Refuse frames beyond 4 GiB — a corrupt header must not trigger a
#: multi-terabyte allocation.
MAX_FRAME = 1 << 32


class FrameError(RuntimeError):
    """The peer sent something that is not a protocol frame."""


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` string (IPv6 hosts in ``[brackets]``)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad port in {text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in {text!r}")
    return host, port


def endpoint_argument(text: str) -> tuple[str, int]:
    """:func:`parse_endpoint` as an argparse ``type`` (``--bind``), so a
    bad value is reported with its reason."""
    try:
        return parse_endpoint(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, or ``None`` on clean EOF at a frame
    boundary; a mid-frame EOF raises :class:`FrameError`."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise FrameError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class Connection:
    """One framed, thread-safe-to-send protocol connection."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self.sent_bytes = 0
        self.received_bytes = 0
        try:
            peer = sock.getpeername()
        except OSError:
            peer = None
        if isinstance(peer, tuple) and len(peer) >= 2:
            self.peer = f"{peer[0]}:{peer[1]}"
        else:  # AF_UNIX (a path or empty) — used by tests
            self.peer = str(peer) if peer else "?"

    def send(self, message: Any) -> int:
        """Frame and send one message; returns the frame size in bytes.

        Raises ``OSError`` when the peer is gone — callers decide
        whether that is fatal (a worker losing its coordinator) or
        routine (a coordinator telling a dead worker to shut down).
        """
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(payload)) + payload
        with self._send_lock:
            self._sock.sendall(frame)
            self.sent_bytes += len(frame)
        return len(frame)

    def recv(self) -> Any | None:
        """Receive one message, or ``None`` on clean EOF."""
        header = _recv_exact(self._sock, _HEADER.size)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise FrameError(f"frame length {length} exceeds {MAX_FRAME}")
        payload = _recv_exact(self._sock, length)
        if payload is None:
            raise FrameError("connection closed between header and payload")
        self.received_bytes += length + _HEADER.size
        try:
            return pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 — poisoned frame, not our bug
            raise FrameError(f"undecodable frame from {self.peer}: {exc}") from exc

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @classmethod
    def connect(
        cls, host: str, port: int, *, timeout: float | None = None
    ) -> "Connection":
        """Dial a coordinator.  ``timeout`` applies to the dial only;
        the established connection blocks indefinitely (leases are
        heartbeat-bounded, not read-timeout-bounded)."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)
