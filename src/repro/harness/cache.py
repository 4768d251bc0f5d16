"""Content-addressed on-disk cache of completed measurement cells.

The :class:`MeasurementCache` is the only durable record of completed
work: every completed plan cell is stored under its content fingerprint
(:meth:`repro.plan.spec.Cell.fingerprint` — function + arguments, graph
arrays included), so any later ``reproduce``/bench/figure invocation
that requests the same work — in any artifact combination, any worker
count — warm-starts from disk and executes nothing.  The same property
makes an interrupted run resumable: entries are written as cells
finish, so rerunning the command against the same ``--cache DIR``
executes only the cells that had not completed.

Layout: one JSON file per entry at
``<dir>/objects/<fp[:2]>/<fp>.json``::

    {"kind": "measurement_cache_entry", "schema_version": "1.0",
     "fingerprint": <hex>, "seconds": <float>,
     "encoding": "json" | "pickle", "result": ...}

Results are stored as JSON when a round trip is provably exact and as
base64 pickle otherwise.  Writes are atomic (temp file + ``os.replace``)
so a crash can never leave a half-written entry; they are not fsynced,
so the guarantee covers a process crash, not a power loss.  Reads are
corruption-tolerant: a corrupt, truncated, mismatched-fingerprint, or
wrong-major-version entry is logged and treated as a miss — the cell
recomputes and the entry is overwritten.  Caching is content-addressed
but code identity is by name only (the :mod:`repro.utils.fingerprint`
tradeoff), so after editing a cell function's *body* delete the cache
directory rather than trusting stale entries.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any

from repro.obs.log import get_logger

__all__ = ["CACHE_SCHEMA_VERSION", "CacheEntry", "MeasurementCache"]

#: Version of the per-entry JSON schema; same policy as run reports
#: (major bump on incompatible change, minor on additive).
CACHE_SCHEMA_VERSION = "1.0"

log = get_logger("harness.cache")


def _encode_result(result: Any) -> tuple[str, Any]:
    """Pick the encoding that round-trips ``result`` exactly.

    JSON when an encode/decode cycle provably returns an equal value
    (covers the plain-dict figure cells); pickle+base64 otherwise
    (measurement objects, tuples, numpy scalars).
    """
    try:
        decoded = json.loads(json.dumps(result))
        if decoded == result and type(decoded) is type(result):
            return "json", result
    except (TypeError, ValueError):
        pass
    payload = base64.b64encode(pickle.dumps(result, protocol=4)).decode("ascii")
    return "pickle", payload


def _decode_result(encoding: str, payload: Any) -> Any:
    if encoding == "json":
        return payload
    if encoding == "pickle":
        return pickle.loads(base64.b64decode(payload))
    raise ValueError(f"unknown cache result encoding {encoding!r}")


@dataclass(frozen=True)
class CacheEntry:
    """One cached cell: its stored result and original wall time."""

    fingerprint: str
    result: Any
    seconds: float


class MeasurementCache:
    """Content-addressed store of measurement results (see module doc).

    Duck-typed for :func:`repro.plan.executor.execute_plan`:
    ``get(fingerprint)`` returns a :class:`CacheEntry` or ``None``,
    ``put(fingerprint, result, seconds)`` stores one entry atomically.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._hits = 0
        self._misses = 0

    def _path(self, fingerprint: str) -> str:
        return os.path.join(
            self.directory, "objects", fingerprint[:2], f"{fingerprint}.json"
        )

    def has(self, fingerprint: str) -> bool:
        return os.path.exists(self._path(fingerprint))

    def get(self, fingerprint: str) -> CacheEntry | None:
        """Load one entry; any unreadable or untrusted file is a miss."""
        path = self._path(fingerprint)
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            self._misses += 1
            return None
        except (OSError, ValueError) as exc:
            log.warning("%s: unreadable cache entry (%s); recomputing", path, exc)
            self._misses += 1
            return None
        entry = self._parse(path, data, fingerprint)
        if entry is None:
            self._misses += 1
            return None
        self._hits += 1
        return entry

    def _parse(self, path: str, data: Any, fingerprint: str) -> CacheEntry | None:
        if not isinstance(data, dict) or data.get("kind") != "measurement_cache_entry":
            log.warning("%s: not a measurement cache entry; recomputing", path)
            return None
        version = str(data.get("schema_version", ""))
        if version.split(".", 1)[0] != CACHE_SCHEMA_VERSION.split(".", 1)[0]:
            log.warning(
                "%s: unsupported cache schema version %r (this build reads %r); "
                "recomputing",
                path,
                version,
                CACHE_SCHEMA_VERSION,
            )
            return None
        if data.get("fingerprint") != fingerprint:
            log.warning(
                "%s: fingerprint mismatch (file claims %r); recomputing",
                path,
                data.get("fingerprint"),
            )
            return None
        try:
            return CacheEntry(
                fingerprint=fingerprint,
                result=_decode_result(data["encoding"], data["result"]),
                seconds=float(data["seconds"]),
            )
        except (KeyError, ValueError, TypeError, pickle.UnpicklingError, EOFError) as exc:
            log.warning("%s: corrupt cache entry (%s); recomputing", path, exc)
            return None

    def put(self, fingerprint: str, result: Any, seconds: float) -> None:
        """Store one entry atomically (last writer wins, both identical)."""
        encoding, payload = _encode_result(result)
        document = json.dumps(
            {
                "kind": "measurement_cache_entry",
                "schema_version": CACHE_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "seconds": seconds,
                "encoding": encoding,
                "result": payload,
            },
            sort_keys=True,
        )
        path = self._path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp_", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(document + "\n")
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise

    def drop(self, fingerprint: str) -> bool:
        """Delete one entry; returns whether it existed.

        Invalidation hook for callers whose entries can go stale — the
        serving layer (:mod:`repro.serve.cache`) drops results whose
        inputs were touched by a graph update.  Plan measurements never
        need this (their fingerprints cover the full input content).
        """
        try:
            os.unlink(self._path(fingerprint))
        except FileNotFoundError:
            return False
        return True

    def __len__(self) -> int:
        objects = os.path.join(self.directory, "objects")
        if not os.path.isdir(objects):
            return 0
        return sum(
            1
            for _, _, files in os.walk(objects)
            for name in files
            if name.endswith(".json") and not name.startswith(".tmp_")
        )
