"""Cache engines: exact LRU simulators that turn traces into DRAM traffic.

The paper's communication metric is the number of cache lines transferred
between the last-level cache and DRAM, measured with hardware counters.
Here that measurement is performed by a software cache model with the same
structure the paper assumes (Section III): a single cache level in front of
DRAM, 64-byte lines, write-back + write-allocate, plus non-temporal-store
semantics for the propagation-blocking bins (Section VII).

Two exact engines are provided:

* :class:`FullyAssociativeLRU` — the oracle of the model behind every
  reported number.  An LLC with high associativity (the paper's is
  20-way) behaves very close to fully associative for these workloads;
  full associativity also matches the analytic model's cache abstraction.
  The default engine (``stackdist`` in :data:`repro.memsim.ENGINES`) runs
  this model through :class:`repro.compiled.engine.CompiledLRU` when a
  compiled backend resolves, and through this class otherwise.
* :class:`SetAssociativeLRU` — reference engine with explicit sets/ways,
  used to validate the fully-associative proxy and for associativity
  ablations.

Both engines treat SEQUENTIAL chunks analytically (compulsory transfers
only, no cache installation — see :mod:`repro.memsim.trace` for why) and
simulate IRREGULAR chunks access by access, so the counters are complete
after every chunk.

A faster vectorized engine with a direct-mapped policy lives in
:mod:`repro.memsim.fastcache`; it buffers irregular accesses until its
flush.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.memsim.counters import MemCounters
from repro.memsim.trace import (
    AccessMode,
    Stream,
    TraceChunk,
    coalesce_chunks,
    collapse_consecutive,
)
from repro.obs.metrics import current_registry
from repro.obs.spans import span
from repro.obs.trace import current_tracer
from repro.utils.validation import check_positive, check_power_of_two

__all__ = [
    "CacheConfig",
    "FullyAssociativeLRU",
    "SetAssociativeLRU",
    "simulate",
]

WORD_BYTES = 4  #: the paper's 32-bit words


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Parameters
    ----------
    capacity_bytes:
        Total data capacity.
    line_bytes:
        Cache-line size (64 B throughout the paper).
    ways:
        Associativity; ``None`` means fully associative.
    """

    capacity_bytes: int
    line_bytes: int = 64
    ways: int | None = None

    def __post_init__(self) -> None:
        check_power_of_two("capacity_bytes", self.capacity_bytes)
        check_power_of_two("line_bytes", self.line_bytes)
        if self.line_bytes > self.capacity_bytes:
            raise ValueError("line_bytes cannot exceed capacity_bytes")
        if self.ways is not None:
            check_positive("ways", self.ways)
            if self.num_lines % self.ways != 0:
                raise ValueError(
                    f"ways ({self.ways}) must divide the line count ({self.num_lines})"
                )

    @property
    def num_lines(self) -> int:
        """Number of cache lines (``capacity / line``)."""
        return self.capacity_bytes // self.line_bytes

    @property
    def words_per_line(self) -> int:
        """The paper's ``b``: 32-bit words per line (16 for 64 B lines)."""
        return self.line_bytes // WORD_BYTES

    @property
    def capacity_words(self) -> int:
        """The paper's ``c``: 32-bit words of cache capacity."""
        return self.capacity_bytes // WORD_BYTES

    @property
    def num_sets(self) -> int:
        """Number of sets (1 way per set slot; fully associative -> 1 set)."""
        if self.ways is None:
            return 1
        return self.num_lines // self.ways


class _EngineBase:
    """Shared SEQUENTIAL-chunk handling and the public `run` entry point."""

    config: CacheConfig

    def process_chunk(self, chunk: TraceChunk, counters: MemCounters) -> None:
        if chunk.mode is AccessMode.SEQUENTIAL:
            self._process_sequential(chunk, counters)
        else:
            self._process_irregular(chunk, counters)

    def _process_sequential(self, chunk: TraceChunk, counters: MemCounters) -> None:
        n = chunk.num_accesses
        if n == 0:
            return
        if not chunk.write:
            counters.record(
                chunk.stream, reads=n, accesses=n, phase=chunk.phase
            )
        elif chunk.streaming_store:
            # Non-temporal store: full-line write straight to DRAM, no
            # read-for-ownership (Section VII).
            counters.record(chunk.stream, writes=n, accesses=n, phase=chunk.phase)
        else:
            # Regular store: write-allocate read, then eventual write-back.
            counters.record(
                chunk.stream, reads=n, writes=n, accesses=n, phase=chunk.phase
            )

    def _process_irregular(
        self, chunk: TraceChunk, counters: MemCounters
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def flush(self, counters: MemCounters) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class FullyAssociativeLRU(_EngineBase):
    """Exact fully-associative LRU cache with write-back + write-allocate.

    Implementation: an ``OrderedDict`` mapping line index to a dirty flag;
    its order is recency order (``move_to_end`` on hit, ``popitem(last=
    False)`` evicts the least recently used line).
    """

    def __init__(self, config: CacheConfig) -> None:
        if config.ways is not None and config.ways != config.num_lines:
            raise ValueError(
                "FullyAssociativeLRU requires ways=None (or ways == num_lines); "
                "use SetAssociativeLRU for set-associative configs"
            )
        self.config = config
        self._cache: OrderedDict[int, bool] = OrderedDict()

    def _process_irregular(self, chunk: TraceChunk, counters: MemCounters) -> None:
        lines, collapsed = collapse_consecutive(chunk.lines)
        cache = self._cache
        capacity = self.config.num_lines
        write = chunk.write
        hits = collapsed
        dram_reads = 0
        dram_writes = 0
        move_to_end = cache.move_to_end
        pop_oldest = cache.popitem
        # Two specialized loops keep the per-access work minimal; this loop
        # dominates simulation time for the gather-heavy kernels.
        if write:
            for line in lines.tolist():
                if line in cache:
                    hits += 1
                    move_to_end(line)
                    cache[line] = True
                else:
                    dram_reads += 1  # write-allocate fill
                    cache[line] = True
                    if len(cache) > capacity:
                        if pop_oldest(last=False)[1]:
                            dram_writes += 1  # dirty write-back
        else:
            for line in lines.tolist():
                if line in cache:
                    hits += 1
                    move_to_end(line)
                else:
                    dram_reads += 1
                    cache[line] = False
                    if len(cache) > capacity:
                        if pop_oldest(last=False)[1]:
                            dram_writes += 1
        counters.record(
            chunk.stream,
            reads=dram_reads,
            writes=dram_writes,
            hits=hits,
            accesses=chunk.num_accesses,
            phase=chunk.phase,
            irregular=True,
        )

    def flush(self, counters: MemCounters) -> None:
        """Write back all remaining dirty lines and empty the cache."""
        dirty_count = sum(1 for dirty in self._cache.values() if dirty)
        if dirty_count:
            counters.record(Stream.OTHER, writes=dirty_count, phase="flush")
        self._cache.clear()

    @property
    def occupancy(self) -> int:
        """Number of resident lines (test hook)."""
        return len(self._cache)


class SetAssociativeLRU(_EngineBase):
    """Exact set-associative LRU cache (reference implementation).

    One small recency dict per set; line -> set mapping uses the low line
    bits, as in real hardware.  Slower than :class:`FullyAssociativeLRU`,
    intended for validation and associativity ablations.
    """

    def __init__(self, config: CacheConfig) -> None:
        if config.ways is None:
            config = CacheConfig(
                config.capacity_bytes, config.line_bytes, ways=config.num_lines
            )
        check_power_of_two("num_sets", config.num_sets)
        self.config = config
        self._sets: list[dict[int, bool]] = [dict() for _ in range(config.num_sets)]
        self._set_mask = config.num_sets - 1

    def _process_irregular(self, chunk: TraceChunk, counters: MemCounters) -> None:
        lines, collapsed = collapse_consecutive(chunk.lines)
        sets = self._sets
        mask = self._set_mask
        ways = self.config.ways
        write = chunk.write
        hits = collapsed
        dram_reads = 0
        dram_writes = 0
        for line in lines.tolist():
            cache = sets[line & mask]
            dirty = cache.pop(line, None)
            if dirty is None:
                dram_reads += 1
                cache[line] = write
                if len(cache) > ways:
                    victim = next(iter(cache))
                    if cache.pop(victim):
                        dram_writes += 1
            else:
                hits += 1
                cache[line] = dirty or write
        counters.record(
            chunk.stream,
            reads=dram_reads,
            writes=dram_writes,
            hits=hits,
            accesses=chunk.num_accesses,
            phase=chunk.phase,
            irregular=True,
        )

    def flush(self, counters: MemCounters) -> None:
        """Write back all remaining dirty lines and empty every set."""
        dirty_count = sum(
            1 for cache in self._sets for dirty in cache.values() if dirty
        )
        if dirty_count:
            counters.record(Stream.OTHER, writes=dirty_count, phase="flush")
        for cache in self._sets:
            cache.clear()

    @property
    def occupancy(self) -> int:
        """Number of resident lines across all sets (test hook)."""
        return sum(len(cache) for cache in self._sets)


#: Max irregular line accesses retained per stream for reuse-distance
#: histograms — bounds the instrumented path's memory on huge traces
#: (the Bennett–Kruskal pass is O(n log n) in this sample size).
REUSE_SAMPLE_CAP = 1 << 18


def simulate(
    trace,
    engine: _EngineBase,
    *,
    flush: bool = True,
    counters: MemCounters | None = None,
    coalesce: bool = True,
) -> MemCounters:
    """Run ``trace`` (an iterable of chunks) through ``engine``.

    ``flush=True`` writes back dirty lines at the end, charging the final
    write-backs the hardware would eventually perform; ``flush=False``
    keeps the cache warm for a following trace.

    ``coalesce=True`` merges adjacent same-semantics chunks first
    (:func:`repro.memsim.trace.coalesce_chunks`) — counters are provably
    unchanged, per-chunk overhead shrinks.

    When a trace recorder (:mod:`repro.obs.trace`) or a metrics registry
    (:mod:`repro.obs.metrics`) is active, a slower instrumented loop runs
    instead: per-phase spans, per-stream DRAM counter tracks, a running
    miss-rate track, and reuse-distance histograms per irregular stream.
    The instrumented loop never coalesces, keeping per-chunk tracks (and
    the golden trace shape) unchanged.
    """
    if counters is None:
        counters = MemCounters()
    tracer = current_tracer()
    registry = current_registry()
    with span(f"simulate[{type(engine).__name__}]"):
        if tracer is None and registry is None:
            if coalesce:
                trace = coalesce_chunks(trace)
            for chunk in trace:
                engine.process_chunk(chunk, counters)
        else:
            _simulate_instrumented(trace, engine, counters, tracer, registry)
        if flush:
            engine.flush(counters)
    return counters


def _simulate_instrumented(trace, engine, counters, tracer, registry) -> None:
    """The observability-enabled simulation loop (see :func:`simulate`)."""
    reuse_lines: dict[Stream, list[int]] | None = (
        {} if registry is not None else None
    )
    phase_span = None
    current_phase: str | None = None
    try:
        for chunk in trace:
            if chunk.phase != current_phase:
                if phase_span is not None:
                    phase_span.__exit__(None, None, None)
                current_phase = chunk.phase
                phase_span = span(f"phase[{current_phase or 'unphased'}]")
                phase_span.__enter__()
            if reuse_lines is not None and chunk.mode is AccessMode.IRREGULAR:
                sample = reuse_lines.setdefault(chunk.stream, [])
                room = REUSE_SAMPLE_CAP - len(sample)
                if room > 0:
                    sample.extend(chunk.lines[:room].tolist())
            engine.process_chunk(chunk, counters)
            if tracer is not None:
                stream = chunk.stream
                tracer.counter(
                    f"dram[{stream.value}]",
                    {
                        "reads": counters.reads[stream],
                        "writes": counters.writes[stream],
                    },
                )
                tracer.counter("miss_rate", {"miss_rate": counters.miss_rate()})
    finally:
        if phase_span is not None:
            phase_span.__exit__(None, None, None)
    if reuse_lines:
        from repro.memsim.reuse import log2_bucketed, reuse_distance_histogram

        with span("reuse_histograms"):
            for stream, sample in reuse_lines.items():
                histogram = registry.histogram(f"reuse_distance/{stream.value}")
                buckets = log2_bucketed(reuse_distance_histogram(sample))
                for label, count in buckets.items():
                    histogram.observe_label(label, count)
