"""Differential tests: the default engine vs the per-access oracle.

The default engine (``stackdist``, :data:`repro.memsim.DEFAULT_ENGINE`)
is the compiled exact LRU when a compiled backend resolves and the
``flru`` loop otherwise.  Either way its contract is *bit-identical*
``MemCounters`` to :class:`FullyAssociativeLRU`: every field — per-stream
reads, writes, hits and accesses, per-phase reads and writes, the
irregular counts — including flush write-backs.  Every test here builds a
trace, replays it through both engines and compares the counters
exactly.  ``misses_for_capacity`` from :mod:`repro.memsim.reuse` serves
as a third, independently-derived oracle for read-only single-stream
traces.  CI also runs this file with ``REPRO_COMPILED_BACKEND=none``.
"""

import numpy as np
import pytest

from repro.graphs import load_graph
from repro.kernels.pagerank import make_kernel
from repro.memsim import (
    DEFAULT_ENGINE,
    CacheConfig,
    FullyAssociativeLRU,
    MemCounters,
    Stream,
    coalesce_chunks,
    irregular_chunk,
    make_engine,
    misses_for_capacity,
    reuse_distance_histogram,
    sequential_chunk,
    simulate,
)


def config_for(lines: int) -> CacheConfig:
    return CacheConfig(capacity_bytes=64 * lines, line_bytes=64)


def both_engines(lines: int):
    cfg = config_for(lines)
    return FullyAssociativeLRU(cfg), make_engine(DEFAULT_ENGINE, cfg)


def assert_identical(trace, capacity_lines: int, *, flush: bool = True):
    """Replay ``trace`` through both engines and compare every counter."""
    oracle, default = both_engines(capacity_lines)
    expected = simulate(trace, oracle, flush=flush)
    actual = simulate(trace, default, flush=flush)
    assert actual == expected
    return actual


def random_trace(rng, *, space: int, num_chunks: int, max_len: int = 400):
    trace = []
    for _ in range(num_chunks):
        length = int(rng.integers(1, max_len))
        lines = rng.integers(0, space, size=length)
        trace.append(
            irregular_chunk(
                lines,
                write=bool(rng.integers(0, 2)),
                stream=rng.choice([Stream.VERTEX_CONTRIB, Stream.VERTEX_SUMS]),
                phase=str(rng.choice(["", "binning", "accumulate"])),
            )
        )
    return trace


# ----------------------------------------------------------------------
# randomized sweeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_randomized_traces_match_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        capacity = int(rng.choice([1, 2, 4, 8, 16, 64, 256]))
        space = int(rng.choice([2, 8, 64, 1024, 4096]))
        trace = random_trace(rng, space=space, num_chunks=int(rng.integers(1, 6)))
        assert_identical(trace, capacity)


@pytest.mark.parametrize("capacity", [1, 4, 16, 128, 512, 1024])
def test_thrash_and_fits_regimes(capacity):
    # space <= capacity: every line stays resident (compulsory misses
    # only); space >> capacity: nearly every access evicts.
    rng = np.random.default_rng(capacity)
    for space in (max(2, capacity // 2), capacity * 8 + 1):
        lines = rng.integers(0, space, size=5000)
        trace = [irregular_chunk(lines, write=False, stream=Stream.VERTEX_CONTRIB)]
        assert_identical(trace, capacity)


def test_mixed_sequential_and_irregular_chunks():
    rng = np.random.default_rng(3)
    trace = [
        sequential_chunk(np.arange(50), stream=Stream.EDGE_ADJ),
        irregular_chunk(rng.integers(0, 300, 700), write=True, stream=Stream.VERTEX_SUMS),
        sequential_chunk(np.arange(20), write=True, streaming_store=True,
                         stream=Stream.BIN_DATA),
        irregular_chunk(rng.integers(0, 300, 700), stream=Stream.VERTEX_CONTRIB),
    ]
    assert_identical(trace, 32)


def test_writeback_charging_across_phases():
    # A line filled by phase A, dirtied by phase B, and evicted in phase C
    # must charge its write-back where the oracle charges it.
    trace = [
        irregular_chunk([0, 1, 2], phase="fill", stream=Stream.VERTEX_SUMS),
        irregular_chunk([0], write=True, phase="dirty", stream=Stream.VERTEX_SUMS),
        irregular_chunk([3, 4, 5, 6], phase="evict", stream=Stream.VERTEX_CONTRIB),
    ]
    assert_identical(trace, 4)


def test_flush_writebacks_match():
    trace = [irregular_chunk([0, 1, 2, 3], write=True, stream=Stream.VERTEX_SUMS)]
    with_flush = assert_identical(trace, 8, flush=True)
    without = assert_identical(trace, 8, flush=False)
    assert with_flush.total_writes > without.total_writes


def test_unflushed_simulate_preserves_state():
    # simulate(flush=False) keeps the cache warm: a second trace must
    # continue from the same cache state as the oracle's.
    rng = np.random.default_rng(13)
    first = [irregular_chunk(rng.integers(0, 200, 500), write=True,
                             stream=Stream.VERTEX_SUMS)]
    second = [irregular_chunk(rng.integers(0, 200, 500),
                              stream=Stream.VERTEX_CONTRIB)]
    oracle, default = both_engines(32)
    c1 = MemCounters()
    c2 = MemCounters()
    for trace in (first, second):
        simulate(trace, oracle, flush=False, counters=c1)
        simulate(trace, default, flush=False, counters=c2)
        assert c2 == c1
        assert default.occupancy == oracle.occupancy == 32
    oracle.flush(c1)
    default.flush(c2)
    assert c2 == c1


# ----------------------------------------------------------------------
# third oracle: Bennett-Kruskal stack distances from reuse.py
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [1, 2, 8, 64, 256])
def test_reuse_histogram_is_third_oracle(capacity):
    rng = np.random.default_rng(capacity)
    lines = rng.integers(0, 700, size=3000)
    histogram = reuse_distance_histogram(lines)
    expected_misses = misses_for_capacity(histogram, capacity)

    trace = [irregular_chunk(lines, stream=Stream.VERTEX_CONTRIB)]
    for engine in both_engines(capacity):
        counters = simulate(trace, engine)
        assert counters.total_reads == expected_misses


# ----------------------------------------------------------------------
# kernel-generated traces (the real workloads)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["baseline", "cb", "pb", "dpb"])
def test_kernel_traces_match_oracle(method):
    graph = load_graph("urand", scale=0.02, seed=5)
    kernel = make_kernel(graph, method)
    expected = kernel.measure(1, engine="flru")
    actual = kernel.measure(1, engine=DEFAULT_ENGINE)
    assert actual == expected


def test_kernel_trace_two_iterations_match():
    graph = load_graph("web", scale=0.02, seed=5)
    kernel = make_kernel(graph, "dpb")
    expected = kernel.measure(2, engine="flru")
    actual = kernel.measure(2, engine=DEFAULT_ENGINE)
    assert actual == expected


# ----------------------------------------------------------------------
# coalescing + registry
# ----------------------------------------------------------------------
def test_coalescing_preserves_counters():
    rng = np.random.default_rng(21)
    trace = [
        irregular_chunk(rng.integers(0, 100, 40), stream=Stream.VERTEX_CONTRIB)
        for _ in range(25)
    ]
    merged = coalesce_chunks(trace)
    assert len(merged) == 1
    for engine_a, engine_b in zip(both_engines(16), both_engines(16)):
        a = simulate(trace, engine_a, coalesce=False)
        b = simulate(merged, engine_b, coalesce=False)
        assert a == b


def test_coalescing_respects_boundaries():
    trace = [
        irregular_chunk([1, 2], stream=Stream.VERTEX_SUMS, write=True),
        irregular_chunk([3, 4], stream=Stream.VERTEX_SUMS, write=False),
        sequential_chunk([5, 6], stream=Stream.EDGE_ADJ),
        irregular_chunk([7], stream=Stream.VERTEX_SUMS, phase="binning"),
        irregular_chunk([8], stream=Stream.VERTEX_SUMS, phase="accumulate"),
    ]
    assert len(coalesce_chunks(trace)) == 5


def test_registry_and_default():
    from repro.compiled import available
    from repro.compiled.engine import CompiledLRU
    from repro.memsim import ENGINES

    assert DEFAULT_ENGINE == "stackdist"
    assert set(ENGINES) == {"stackdist", "flru", "set", "plru", "dmap"}
    engine = make_engine(DEFAULT_ENGINE, config_for(16))
    expected_type = CompiledLRU if available() else FullyAssociativeLRU
    assert type(engine) is expected_type
    with pytest.raises(ValueError, match="unknown engine"):
        make_engine("nope", config_for(16))
    with pytest.raises(ValueError, match="unknown engine"):
        make_engine("compiled", config_for(16))


def test_rejects_set_associative_config():
    with pytest.raises(ValueError, match="ways=None"):
        make_engine(
            DEFAULT_ENGINE,
            CacheConfig(capacity_bytes=64 * 16, line_bytes=64, ways=4),
        )
