"""Property-based tests for the cache engines (hypothesis).

The key oracle is a brute-force LRU simulator implemented with a plain
Python list — slow but obviously correct — against which the dict-based
fully-associative engine, the set-associative engine (with one set), the
vectorized direct-mapped engine (with capacity-one... i.e., where policies
coincide) and the reuse-distance analysis are all checked.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memsim import (
    DEFAULT_ENGINE,
    CacheConfig,
    DirectMappedVectorized,
    FullyAssociativeLRU,
    MemCounters,
    SetAssociativeLRU,
    Stream,
    irregular_chunk,
    make_engine,
    misses_for_capacity,
    reuse_distance_histogram,
    simulate,
)


def brute_force_lru(lines: list[int], writes: list[bool], capacity: int):
    """Reference LRU: list ordered MRU-first, explicit dirty tracking."""
    order: list[int] = []
    dirty: dict[int, bool] = {}
    reads = 0
    writebacks = 0
    for line, is_write in zip(lines, writes):
        if line in dirty:
            order.remove(line)
            order.insert(0, line)
            dirty[line] = dirty[line] or is_write
        else:
            reads += 1
            order.insert(0, line)
            dirty[line] = is_write
            if len(order) > capacity:
                victim = order.pop()
                if dirty.pop(victim):
                    writebacks += 1
    flush_writebacks = sum(dirty.values())
    return reads, writebacks + flush_writebacks


trace_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), st.booleans()),
    min_size=0,
    max_size=200,
)
capacity_strategy = st.sampled_from([1, 2, 4, 8])


@given(trace=trace_strategy, capacity=capacity_strategy)
@settings(max_examples=200, deadline=None)
def test_fa_lru_matches_brute_force(trace, capacity):
    lines = [line for line, _ in trace]
    writes = [w for _, w in trace]
    expected_reads, expected_writes = brute_force_lru(lines, writes, capacity)

    engine = FullyAssociativeLRU(CacheConfig(64 * capacity, 64))
    chunks = [
        irregular_chunk(np.array([line], dtype=np.int64), write=w)
        for line, w in trace
    ]
    counters = simulate(chunks, engine, flush=True)
    assert counters.total_reads == expected_reads
    assert counters.total_writes == expected_writes


@given(trace=trace_strategy, capacity=capacity_strategy)
@settings(max_examples=100, deadline=None)
def test_single_set_associative_matches_fa(trace, capacity):
    lines = [line for line, _ in trace]
    writes = [w for _, w in trace]
    expected_reads, expected_writes = brute_force_lru(lines, writes, capacity)

    # ways == num_lines -> one set covering the whole cache.
    cfg = CacheConfig(64 * capacity, 64, ways=capacity)
    engine = SetAssociativeLRU(cfg)
    chunks = [
        irregular_chunk(np.array([line], dtype=np.int64), write=w)
        for line, w in trace
    ]
    counters = simulate(chunks, engine, flush=True)
    assert counters.total_reads == expected_reads
    assert counters.total_writes == expected_writes


@given(trace=trace_strategy)
@settings(max_examples=100, deadline=None)
def test_chunked_equals_per_access(trace):
    """Splitting a trace into chunks must not change the counts."""
    if not trace:
        return
    lines = np.array([line for line, _ in trace], dtype=np.int64)
    # All-reads version so a single chunk is homogeneous.
    engine_a = FullyAssociativeLRU(CacheConfig(256, 64))
    counters_a = simulate([irregular_chunk(lines)], engine_a)
    engine_b = FullyAssociativeLRU(CacheConfig(256, 64))
    per_access = [irregular_chunk(lines[i : i + 1]) for i in range(lines.size)]
    counters_b = simulate(per_access, engine_b)
    assert counters_a.total_reads == counters_b.total_reads
    assert counters_a.total_writes == counters_b.total_writes


@given(
    lines=st.lists(st.integers(min_value=0, max_value=20), max_size=150),
    capacity=capacity_strategy,
)
@settings(max_examples=150, deadline=None)
def test_reuse_distance_predicts_lru_misses(lines, capacity):
    """misses(C) from the reuse-distance histogram == the LRU engine's misses."""
    arr = np.asarray(lines, dtype=np.int64)
    hist = reuse_distance_histogram(arr)
    predicted = misses_for_capacity(hist, capacity)
    engine = FullyAssociativeLRU(CacheConfig(64 * capacity, 64))
    counters = simulate([irregular_chunk(arr)], engine)
    assert counters.total_reads == predicted


@given(lines=st.lists(st.integers(min_value=0, max_value=30), max_size=150))
@settings(max_examples=100, deadline=None)
def test_miss_count_monotone_in_capacity(lines):
    arr = np.asarray(lines, dtype=np.int64)
    hist = reuse_distance_histogram(arr)
    misses = [misses_for_capacity(hist, c) for c in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(misses, misses[1:]))
    # Largest capacity -> compulsory misses only.
    assert misses_for_capacity(hist, 1 << 20) == len(set(lines))


@given(
    trace=st.lists(
        st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
        max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_direct_mapped_vectorized_matches_scalar_direct_mapped(trace):
    """The vectorized engine equals a one-line-per-set scalar simulation."""
    num_sets = 4
    lines = [line for line, _ in trace]
    writes = [w for _, w in trace]

    # Scalar reference: each set holds one line.
    stored: dict[int, int] = {}
    stored_dirty: dict[int, bool] = {}
    reads = 0
    writebacks = 0
    for line, is_write in zip(lines, writes):
        s = line % num_sets
        if stored.get(s) == line:
            stored_dirty[s] = stored_dirty[s] or is_write
        else:
            if s in stored and stored_dirty[s]:
                writebacks += 1
            reads += 1
            stored[s] = line
            stored_dirty[s] = is_write
    writebacks += sum(stored_dirty.values())

    engine = DirectMappedVectorized(CacheConfig(64 * num_sets, 64))
    chunks = [
        irregular_chunk(np.array([line], dtype=np.int64), write=w)
        for line, w in trace
    ]
    counters = simulate(chunks, engine, flush=True)
    assert counters.total_reads == reads
    assert counters.total_writes == writebacks


@given(
    lines=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=100)
)
@settings(max_examples=100, deadline=None)
def test_hits_plus_misses_equals_accesses(lines):
    arr = np.asarray(lines, dtype=np.int64)
    engine = FullyAssociativeLRU(CacheConfig(256, 64))
    counters = simulate([irregular_chunk(arr)], engine)

    assert counters.hits[Stream.OTHER] + counters.reads[Stream.OTHER] == arr.size


# ----------------------------------------------------------------------
# stateful differential: the default engine vs the per-access oracle,
# compared at arbitrary points
# ----------------------------------------------------------------------
# A "program" interleaves gather chunks (reads of VERTEX_CONTRIB — the
# bin-reading side of propagation blocking), scatter chunks (writes of
# VERTEX_SUMS — the accumulate side) and "sync" points.  Every exact
# engine resolves accesses eagerly, so at each sync point, and after the
# final flush, every counter field must equal the oracle's.
_chunk_op = st.tuples(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60),
    st.booleans(),  # True -> scatter (write sums), False -> gather (read contribs)
)
_program = st.lists(st.one_of(st.just("sync"), _chunk_op), max_size=30)


@given(program=_program, capacity=capacity_strategy)
@settings(max_examples=150, deadline=None)
def test_stackdist_matches_oracle_with_interleaved_sync(program, capacity):
    cfg = CacheConfig(64 * capacity, 64)
    oracle, default = FullyAssociativeLRU(cfg), make_engine(DEFAULT_ENGINE, cfg)
    c_oracle, c_default = MemCounters(), MemCounters()
    for op in program:
        if op == "sync":
            assert c_default == c_oracle
        else:
            lines, is_scatter = op
            chunk = irregular_chunk(
                np.asarray(lines, dtype=np.int64),
                write=is_scatter,
                stream=Stream.VERTEX_SUMS if is_scatter else Stream.VERTEX_CONTRIB,
                phase="accumulate" if is_scatter else "binning",
            )
            oracle.process_chunk(chunk, c_oracle)
            default.process_chunk(chunk, c_default)
    oracle.flush(c_oracle)
    default.flush(c_default)
    assert c_default == c_oracle
