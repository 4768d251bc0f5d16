"""Memory-system simulator: the stand-in for hardware performance counters.

Kernels emit cache-line access *traces* (:mod:`repro.memsim.trace`); cache
*engines* (:mod:`repro.memsim.cache`, :mod:`repro.memsim.fastcache`) replay
them against an LLC model and accumulate DRAM transfers into
:class:`~repro.memsim.counters.MemCounters` — the quantity the paper
measures with Intel PCM.  :mod:`repro.memsim.hierarchy` adds L1 effects and
:mod:`repro.memsim.reuse` provides miss-ratio-curve oracles.
"""

from repro.memsim.trace import (
    AccessMode,
    Stream,
    STREAM_CATEGORY,
    TraceChunk,
    Region,
    AddressSpace,
    sequential_chunk,
    irregular_chunk,
    collapse_consecutive,
    coalesce_chunks,
)
from repro.memsim.counters import MemCounters
from repro.memsim.cache import (
    WORD_BYTES,
    CacheConfig,
    FullyAssociativeLRU,
    SetAssociativeLRU,
    simulate,
)
from repro.memsim.fastcache import DirectMappedVectorized
from repro.memsim.plru import TreePLRUCache
from repro.memsim.traceio import save_trace, load_trace
from repro.memsim.hierarchy import DEFAULT_L1, L1Model, TwoLevel
from repro.memsim.reuse import (
    reuse_distance_histogram,
    misses_for_capacity,
    miss_ratio_curve,
)

__all__ = [
    "AccessMode",
    "Stream",
    "STREAM_CATEGORY",
    "TraceChunk",
    "Region",
    "AddressSpace",
    "sequential_chunk",
    "irregular_chunk",
    "collapse_consecutive",
    "coalesce_chunks",
    "MemCounters",
    "WORD_BYTES",
    "CacheConfig",
    "FullyAssociativeLRU",
    "SetAssociativeLRU",
    "simulate",
    "DirectMappedVectorized",
    "TreePLRUCache",
    "save_trace",
    "load_trace",
    "DEFAULT_L1",
    "L1Model",
    "TwoLevel",
    "reuse_distance_histogram",
    "misses_for_capacity",
    "miss_ratio_curve",
    "make_engine",
    "ENGINES",
    "DEFAULT_ENGINE",
]


def _make_plru(config: CacheConfig):
    if config.ways is None:
        config = CacheConfig(
            config.capacity_bytes, config.line_bytes, ways=min(16, config.num_lines)
        )
    return TreePLRUCache(config)


def _make_stackdist(config: CacheConfig):
    """The default exact LRU: the compiled loop, or the oracle without one.

    Returns :class:`repro.compiled.engine.CompiledLRU` when a compiled
    backend (Numba or a C compiler) resolves, else
    :class:`FullyAssociativeLRU`.  Both give bit-identical counters, so
    only the speed depends on the platform.
    """
    from repro.compiled import CompiledLRU, available

    if available():
        return CompiledLRU(config)
    return FullyAssociativeLRU(config)


#: Engine registry: name -> factory taking a :class:`CacheConfig`.
#: ``stackdist`` and ``flru`` are the *exact* fully-associative LRU model
#: with bit-identical counters: ``flru`` is the per-access oracle loop,
#: and ``stackdist`` runs the same model through the compiled backend when
#: one resolves (else it is ``flru``).  The name ``stackdist`` is kept
#: because every pinned cell fingerprint contains it.  ``set``/``plru``
#: model reduced associativity; ``dmap`` is approximate and banned from
#: reported numbers.
ENGINES: dict[str, object] = {
    "stackdist": _make_stackdist,
    "flru": FullyAssociativeLRU,
    "set": SetAssociativeLRU,
    "plru": _make_plru,
    "dmap": DirectMappedVectorized,
}

#: Engine used for reported numbers when none is requested explicitly.
DEFAULT_ENGINE = "stackdist"


def make_engine(name: str, config: CacheConfig):
    """Engine factory; see :data:`ENGINES` for the registry."""
    try:
        factory = ENGINES[name]
    except KeyError:
        options = ", ".join(repr(key) for key in ENGINES)
        raise ValueError(f"unknown engine {name!r}; choose one of {options}") from None
    return factory(config)
