"""Differential tests: CompiledLRU vs the per-access FullyAssociativeLRU.

Same contract and structure as ``tests/memsim/test_stackdist.py``:
bit-identical ``MemCounters`` in every field (per stream and phase, hits,
irregular counts), including flush write-backs, on randomized traces and
on real kernel traces.  The randomized sweeps deliberately churn tiny
capacities against large address spaces so the compiled engine's hash
table cycles through its tombstone-rebuild path.  The last tests pin the
``stackdist`` factory's two rungs: ``CompiledLRU`` with a backend, the
oracle without one.
"""

import numpy as np
import pytest

from repro.compiled.backend import _compiler
from repro.kernels.pagerank import make_kernel
from repro.memsim import (
    DEFAULT_ENGINE,
    CacheConfig,
    FullyAssociativeLRU,
    Stream,
    irregular_chunk,
    make_engine,
    sequential_chunk,
    simulate,
)
from repro.models.machine import SIMULATED_MACHINE

from tests.compiled.conftest import requires_backend

pytestmark = requires_backend


def config_for(lines: int) -> CacheConfig:
    return CacheConfig(capacity_bytes=64 * lines, line_bytes=64)


def assert_identical(trace, capacity_lines: int, *, flush: bool = True):
    """Replay ``trace`` through both engines and compare counters exactly."""
    from repro.compiled.engine import CompiledLRU

    cfg = config_for(capacity_lines)
    expected = simulate(trace, FullyAssociativeLRU(cfg), flush=flush)
    actual = simulate(trace, CompiledLRU(cfg), flush=flush)
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


@pytest.mark.parametrize("seed", range(6))
def test_randomized_traces_match_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        capacity = int(rng.choice([1, 2, 4, 8, 16, 64, 256]))
        space = int(rng.choice([2, 8, 64, 1024, 4096]))
        trace = random_trace(rng, space=space, num_chunks=int(rng.integers(1, 6)))
        assert_identical(trace, capacity, flush=bool(rng.integers(0, 2)))


def test_tombstone_churn_matches_oracle():
    """A long high-miss trace forces many evictions (and hash rebuilds)."""
    rng = np.random.default_rng(99)
    lines = rng.integers(0, 1 << 16, size=200_000)
    trace = [irregular_chunk(lines, write=True, stream=Stream.VERTEX_SUMS)]
    assert_identical(trace, 64)


def test_mixed_sequential_and_irregular():
    trace = [
        sequential_chunk(np.arange(500), write=False, stream=Stream.EDGE_ADJ),
        irregular_chunk(
            np.array([5, 5, 6, 900, 5]), write=True, stream=Stream.VERTEX_SUMS
        ),
        sequential_chunk(
            np.arange(100, 150), write=True, stream=Stream.VERTEX_SCORES
        ),
        irregular_chunk(np.arange(100), write=False, stream=Stream.VERTEX_CONTRIB),
    ]
    assert_identical(trace, 16)


@pytest.mark.parametrize("method", ["baseline", "cb", "pb", "dpb"])
def test_kernel_traces_match_oracle(random_graph, method):
    kernel = make_kernel(random_graph, method, SIMULATED_MACHINE)
    cfg = SIMULATED_MACHINE.llc
    from repro.compiled.engine import CompiledLRU

    expected = simulate(kernel.trace(2), FullyAssociativeLRU(cfg))
    actual = simulate(kernel.trace(2), CompiledLRU(cfg))
    assert actual == expected


def test_flush_empties_and_engine_is_reusable():
    from repro.compiled.engine import CompiledLRU
    from repro.memsim import MemCounters

    engine = CompiledLRU(config_for(8))
    trace = [irregular_chunk(np.arange(20), write=True, stream=Stream.VERTEX_SUMS)]
    first = simulate(trace, engine)
    assert engine.occupancy == 0  # flushed
    second = simulate(trace, engine, counters=MemCounters())
    assert second == first


def test_occupancy_tracks_residency():
    from repro.compiled.engine import CompiledLRU
    from repro.memsim import MemCounters

    engine = CompiledLRU(config_for(8))
    trace = [irregular_chunk(np.arange(5), stream=Stream.VERTEX_CONTRIB)]
    simulate(trace, engine, flush=False)
    assert engine.occupancy == 5


def test_registry_and_factory():
    from repro.compiled.engine import CompiledLRU

    # With a backend available the default engine is the compiled one.
    engine = make_engine(DEFAULT_ENGINE, config_for(16))
    assert isinstance(engine, CompiledLRU)


def test_rejects_set_associative_config():
    from repro.compiled.engine import CompiledLRU

    with pytest.raises(ValueError, match="ways"):
        CompiledLRU(CacheConfig(capacity_bytes=64 * 16, line_bytes=64, ways=4))


def assert_default_engine_is_the_oracle():
    """The default engine is ``flru`` and counts exactly like it."""
    engine = make_engine(DEFAULT_ENGINE, config_for(16))
    assert type(engine) is FullyAssociativeLRU
    trace = [
        irregular_chunk(
            np.array([1, 2, 1, 3, 9, 1]), write=True, stream=Stream.VERTEX_SUMS
        )
    ]
    expected = simulate(trace, FullyAssociativeLRU(config_for(4)))
    actual = simulate(trace, make_engine(DEFAULT_ENGINE, config_for(4)))
    assert actual == expected


def test_factory_falls_back_without_backend(monkeypatch):
    from repro.compiled import backend as backend_module

    monkeypatch.setenv(backend_module.BACKEND_ENV, "none")
    backend_module._reset_backend_for_tests()
    try:
        assert_default_engine_is_the_oracle()
    finally:
        backend_module._reset_backend_for_tests()


@pytest.mark.skipif(_compiler() is None, reason="no C compiler on PATH")
def test_unusable_cache_dir_falls_back_to_oracle(monkeypatch, tmp_path):
    from repro.compiled import backend as backend_module

    blocker = tmp_path / "not_a_directory"
    blocker.write_text("")
    monkeypatch.setenv(backend_module.BACKEND_ENV, "cc")
    monkeypatch.setenv("REPRO_COMPILED_CACHE_DIR", str(blocker / "cache"))
    backend_module._reset_backend_for_tests()
    try:
        assert backend_module.get_backend() is None
        assert_default_engine_is_the_oracle()
    finally:
        backend_module._reset_backend_for_tests()
