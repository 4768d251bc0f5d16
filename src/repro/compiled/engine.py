"""Compiled cache engine: what the default ``stackdist`` engine runs.

:class:`CompiledLRU` replays irregular trace chunks through an exact
fully-associative LRU implemented in the compiled backend (open-addressing
hash + intrusive recency list over preallocated NumPy arrays), while
SEQUENTIAL chunks keep the shared analytic handling of
:class:`~repro.memsim.cache._EngineBase`.

Accuracy contract: **bit-identical ``MemCounters``** to the
:class:`~repro.memsim.cache.FullyAssociativeLRU` oracle — same write-back
+ write-allocate semantics, same consecutive-access collapse credit, same
``flush`` accounting (dirty write-backs recorded as ``Stream.OTHER`` with
phase ``"flush"``).  The differential suite in
``tests/compiled/test_engine_differential.py`` asserts exact counter
equality on randomized and kernel-generated traces.

Availability: requires a compiled backend (Numba or a C compiler).  The
``stackdist`` factory in :data:`repro.memsim.ENGINES` builds this engine
when a backend resolves and the oracle otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.compiled.backend import get_backend
from repro.memsim.cache import CacheConfig, _EngineBase
from repro.memsim.counters import MemCounters
from repro.memsim.trace import Stream, TraceChunk, collapse_consecutive

__all__ = ["CompiledLRU"]


class _LRUState:
    """Preallocated LRU state shared with the backend by pointer.

    ``hdr`` = ``[count, head, tail, tombstones]``; node slots ``0..count-1``
    are always live (an eviction's slot is immediately reused), forming a
    doubly-linked recency list via ``prev``/``next``.  ``table`` is an
    open-addressing hash (power-of-two size ≥ 4× capacity, so live load
    stays ≤ 1/4; ``-1`` empty, ``-2`` tombstone).
    """

    __slots__ = ("capacity", "hdr", "table", "line", "prev", "next", "dirty")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        table_size = 16
        while table_size < 4 * self.capacity:
            table_size *= 2
        self.hdr = np.array([0, -1, -1, 0], dtype=np.int64)
        self.table = np.full(table_size, -1, dtype=np.int32)
        self.line = np.zeros(self.capacity, dtype=np.int64)
        self.prev = np.full(self.capacity, -1, dtype=np.int32)
        self.next = np.full(self.capacity, -1, dtype=np.int32)
        self.dirty = np.zeros(self.capacity, dtype=np.uint8)


class CompiledLRU(_EngineBase):
    """Exact fully-associative LRU with a compiled per-access loop.

    Bit-identical counters to :class:`FullyAssociativeLRU`; construction
    raises ``RuntimeError`` when no compiled backend exists —
    ``make_engine("stackdist", config)`` falls back to the oracle instead.
    """

    def __init__(self, config: CacheConfig) -> None:
        if config.ways is not None and config.ways != config.num_lines:
            raise ValueError(
                "CompiledLRU requires ways=None (or ways == num_lines); "
                "use SetAssociativeLRU for set-associative configs"
            )
        backend = get_backend()
        if backend is None:
            raise RuntimeError(
                "no compiled backend available; use make_engine('stackdist') "
                "for graceful fallback"
            )
        self.config = config
        self._backend = backend
        self._state = _LRUState(config.num_lines)

    def _process_irregular(self, chunk: TraceChunk, counters: MemCounters) -> None:
        lines, collapsed = collapse_consecutive(chunk.lines)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        misses, writebacks = self._backend.lru_run(
            self._state, lines, bool(chunk.write)
        )
        counters.record(
            chunk.stream,
            reads=misses,  # read misses + write-allocate fills
            writes=writebacks,  # dirty evictions
            hits=collapsed + (lines.size - misses),
            accesses=chunk.num_accesses,
            phase=chunk.phase,
            irregular=True,
        )

    def flush(self, counters: MemCounters) -> None:
        """Write back all remaining dirty lines and empty the cache."""
        dirty_count = self._backend.lru_flush(self._state)
        if dirty_count:
            counters.record(Stream.OTHER, writes=dirty_count, phase="flush")

    @property
    def occupancy(self) -> int:
        """Number of resident lines (test hook)."""
        return int(self._state.hdr[0])
