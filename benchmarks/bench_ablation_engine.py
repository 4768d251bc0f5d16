"""Ablation — cache-model sensitivity of the headline result, plus the
engine speed bench.

DESIGN.md's substitution argument rests on the LLC model: this bench
re-measures baseline vs DPB on urand under the replacement models
(fully-associative LRU — both the per-access ``flru`` oracle and the
default engine — 16-way set-associative LRU, direct-mapped) and shows the
communication-reduction conclusion is insensitive to the choice.

``test_engine_speed`` times the default exact engine (the compiled loop
when a backend resolves) against the ``flru`` oracle on a gather-heavy
irregular workload (uniform gathers over an address space far larger than
the LLC) and emits ``BENCH_engine_speed.json`` with accesses/sec per
engine.  Set ``REPRO_ENGINE_BENCH_ACCESSES`` to shrink the workload on
slow machines.
"""

import os
from time import perf_counter

import numpy as np
import pytest

from repro.kernels import make_kernel
from repro.compiled import backend_name
from repro.memsim import (
    DEFAULT_ENGINE,
    CacheConfig,
    SetAssociativeLRU,
    Stream,
    irregular_chunk,
    make_engine,
    simulate,
)
from repro.models import SIMULATED_MACHINE
from repro.utils import format_table

from benchmarks.emit_bench import emit_bench


def measure(graph, method, engine_name):
    kernel = make_kernel(graph, method)
    config16 = CacheConfig(
        SIMULATED_MACHINE.llc.capacity_bytes,
        SIMULATED_MACHINE.llc.line_bytes,
        ways=16,
    )
    if engine_name == "set16":
        return simulate(kernel.trace(1), SetAssociativeLRU(config16))
    if engine_name == "plru16":
        from repro.memsim import TreePLRUCache

        return simulate(kernel.trace(1), TreePLRUCache(config16))
    return kernel.measure(1, engine=engine_name)


@pytest.mark.parametrize(
    "engine_name", ["flru", DEFAULT_ENGINE, "set16", "plru16", "dmap"]
)
def test_ablation_engine(benchmark, urand_graph, report, engine_name):
    def run_pair():
        base = measure(urand_graph, "baseline", engine_name)
        dpb = measure(urand_graph, "dpb", engine_name)
        return base, dpb

    base, dpb = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    reduction = base.total_requests / dpb.total_requests
    report(
        f"ablation_engine_{engine_name}",
        format_table(
            ["engine", "baseline req", "dpb req", "reduction"],
            [[engine_name, base.total_requests, dpb.total_requests, round(reduction, 2)]],
            title="Ablation: DPB communication reduction under different LLC models",
        ),
    )
    # The headline reduction holds under every replacement model.
    assert reduction > 1.8


def test_engine_speed(report):
    """The default exact engine against the ``flru`` oracle.

    Uniform gathers over 2^22 lines against a 256-line cache: nearly every
    access misses and the oracle's dict churns far beyond any hardware
    cache, which is exactly where per-access Python costs the most.
    Counters must stay bit-identical while wall-clock drops >= 10x, which
    needs the compiled rung (the default engine is ``flru`` itself
    without a backend).
    """
    num_accesses = int(os.environ.get("REPRO_ENGINE_BENCH_ACCESSES", str(1 << 24)))
    space_lines = 1 << 22
    capacity_lines = 256
    config = CacheConfig(capacity_bytes=64 * capacity_lines, line_bytes=64)
    rng = np.random.default_rng(1234)
    lines = rng.integers(0, space_lines, size=num_accesses)

    timings: dict[str, float] = {}
    counters: dict[str, object] = {}
    for name in ("flru", DEFAULT_ENGINE, "dmap"):
        trace = [irregular_chunk(lines, stream=Stream.VERTEX_CONTRIB)]
        engine = make_engine(name, config)
        start = perf_counter()
        counters[name] = simulate(trace, engine)
        timings[name] = perf_counter() - start

    # Zero counter drift between the oracle and the default exact engine
    # (dmap is approximate and exempt).
    assert counters[DEFAULT_ENGINE] == counters["flru"]
    speedup = timings["flru"] / timings[DEFAULT_ENGINE]
    backend = backend_name()

    rows = [
        [name, round(seconds, 3), round(num_accesses / seconds / 1e6, 1)]
        for name, seconds in timings.items()
    ]
    report(
        "engine_speed",
        format_table(
            ["engine", "seconds", "Macc/s"],
            rows,
            title=f"Exact-engine speed, {num_accesses} gather accesses "
            f"(space {space_lines} lines, cache {capacity_lines} lines); "
            f"{DEFAULT_ENGINE} ({backend}) speedup over flru: {speedup:.1f}x",
        ),
    )
    emit_bench(
        "engine_speed",
        {
            **{
                f"{name}/accesses_per_sec": num_accesses / seconds
                for name, seconds in timings.items()
            },
            f"{DEFAULT_ENGINE}/speedup_over_flru": speedup,
        },
        meta={
            "source": "bench_ablation_engine",
            "accesses": num_accesses,
            "space_lines": space_lines,
            "capacity_lines": capacity_lines,
            "backend": backend,
            "units": f"accesses per second; speedup is flru_s / {DEFAULT_ENGINE}_s",
        },
    )
    assert speedup >= 10.0
