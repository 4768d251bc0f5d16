"""Stable content fingerprints for sweep cells and plain-data values.

Checkpoint/resume (:mod:`repro.harness.checkpoint`) and deterministic
fault injection (:mod:`repro.parallel.faults`) both need a cell identity
that is *stable across processes and interpreter runs*: Python's builtin
``hash`` is salted per process, ``id`` is meaningless after a restart,
and ``repr`` of numpy arrays truncates.  :func:`stable_digest` walks a
value recursively and feeds a canonical byte encoding into SHA-256, so
equal plain data always produces the same hex digest — on any machine,
in any process.

Supported values: ``None``, bools, ints, floats (by shortest-repr, the
same encoding JSON round-trips exactly), strings, bytes, tuples, lists,
sets/frozensets (order-canonicalized), dicts (key-order-canonicalized),
numpy scalars and arrays (dtype + shape + raw bytes), dataclasses (class
qualname + fields), and callables (module + qualname — identity by
*name*, so editing a function's body does not invalidate checkpoints;
renaming or moving it does).  Anything else falls back to ``repr``,
which keeps the digest total but only as stable as the repr.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

import numpy as np

__all__ = ["stable_digest", "cell_fingerprint"]


def _feed(h, obj: Any) -> None:
    """Feed a canonical, type-tagged encoding of ``obj`` into hash ``h``."""
    if obj is None:
        h.update(b"N;")
    elif obj is True:
        h.update(b"T;")
    elif obj is False:
        h.update(b"F;")
    elif isinstance(obj, int):
        h.update(b"i:" + str(obj).encode() + b";")
    elif isinstance(obj, float):
        h.update(b"f:" + repr(obj).encode() + b";")
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"s:" + str(len(data)).encode() + b":" + data + b";")
    elif isinstance(obj, bytes):
        h.update(b"b:" + str(len(obj)).encode() + b":" + obj + b";")
    elif isinstance(obj, np.ndarray):
        h.update(b"a:" + str(obj.dtype).encode() + b":" + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
        h.update(b";")
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(" if isinstance(obj, tuple) else b"[")
        for item in obj:
            _feed(h, item)
        h.update(b")" if isinstance(obj, tuple) else b"]")
    elif isinstance(obj, (set, frozenset)):
        h.update(b"{")
        for digest in sorted(stable_digest(item) for item in obj):
            h.update(digest.encode() + b",")
        h.update(b"}")
    elif isinstance(obj, dict):
        h.update(b"<")
        entries = sorted(
            (stable_digest(key), key, value) for key, value in obj.items()
        )
        for key_digest, _, value in entries:
            h.update(key_digest.encode() + b"=")
            _feed(h, value)
        h.update(b">")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        h.update(b"D:" + f"{cls.__module__}.{cls.__qualname__}".encode() + b"{")
        for field in dataclasses.fields(obj):
            h.update(field.name.encode() + b"=")
            _feed(h, getattr(obj, field.name))
        h.update(b"}")
    elif callable(obj):
        module = getattr(obj, "__module__", "?")
        qualname = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(obj)))
        h.update(b"c:" + f"{module}.{qualname}".encode() + b";")
    else:
        # Plain attribute-bag objects (CSRGraph and friends): hash the
        # public attributes only.  Private attributes are skipped because
        # they hold caches (CSRGraph._transpose is computed lazily) that
        # would make the same value hash differently over its lifetime.
        state = _public_state(obj)
        if state is not None:
            cls = type(obj)
            h.update(b"O:" + f"{cls.__module__}.{cls.__qualname__}".encode() + b"{")
            for name, value in state:
                h.update(name.encode() + b"=")
                _feed(h, value)
            h.update(b"}")
        else:
            h.update(b"r:" + repr(obj).encode() + b";")


def _public_state(obj: Any) -> list[tuple[str, Any]] | None:
    """Sorted public data attributes of ``obj``, from ``__dict__`` or slots."""
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return sorted(
            (name, value)
            for name, value in state.items()
            if not name.startswith("_")
        )
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        names = [slots] if isinstance(slots, str) else list(slots)
        return sorted(
            (name, getattr(obj, name))
            for name in names
            if not name.startswith("_") and hasattr(obj, name)
        )
    return None


def stable_digest(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical encoding (see module doc)."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def cell_fingerprint(fn, key: Any, args: tuple = (), kwargs: dict | None = None) -> str:
    """Fingerprint of one sweep cell: function identity + key + arguments.

    Two cells share a fingerprint iff they would compute the same result
    (same function by name, same plain-data arguments), which is exactly
    the skip condition checkpoint/resume needs.
    """
    return stable_digest((fn, key, tuple(args), dict(kwargs or {})))
