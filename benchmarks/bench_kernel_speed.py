"""Compiled-tier kernel speed: the headline number for ``repro.compiled``.

Times the propagation-blocking bin/accumulate loop — the paper's hot path
— through the pure-NumPy oracle (``pb``) and the compiled tier
(``pb-compiled``) on the same graph and bin layout, asserting

* bit-identical scores (the compiled tier's accuracy contract), and
* **>= 10x wall-clock speedup** per iteration,

and emits ``BENCH_kernel_speed.json`` with backend warm-up (compile/JIT
cost) reported *separately* from steady-state iteration time, following
Balaji & Lucia's preprocessing-cost accounting: the speedup claim is for
the steady state, and the document carries what it costs to get there.

The compiled cache engine has its own bench:
``bench_ablation_engine.test_engine_speed`` times the default engine
against the ``flru`` oracle.

Knobs for slow machines: ``REPRO_KERNEL_BENCH_VERTICES`` (default 2^23)
and ``REPRO_KERNEL_BENCH_ITERATIONS`` (default 2).  Skips when no
compiled backend is available (the ``numpy`` fallback would compare the
oracle against itself).
"""

import os
from time import perf_counter

import numpy as np
import pytest

from repro.compiled import available, backend_name, warmup
from repro.graphs import build_csr, uniform_random_graph
from repro.kernels import make_kernel
from repro.utils import format_table

from benchmarks.emit_bench import emit_bench

#: Bin width tuned for host caches (1024 write streams = 64 KiB of active
#: lines in the binning phase), not for the simulated machine: this bench
#: measures *host* wall-clock, unlike every traffic bench.
BIN_WIDTH = 16384


def test_kernel_speed(report):
    if not available():
        pytest.skip("no compiled backend (numba or a C compiler) available")

    num_vertices = int(
        os.environ.get("REPRO_KERNEL_BENCH_VERTICES", str(1 << 23))
    )
    iterations = int(os.environ.get("REPRO_KERNEL_BENCH_ITERATIONS", "2"))
    degree = 16
    graph = build_csr(uniform_random_graph(num_vertices, degree, seed=7))

    warm = warmup()  # compile/JIT outside the timed region, reported below

    oracle = make_kernel(graph, "pb", bin_width=BIN_WIDTH)
    fast = make_kernel(graph, "pb", tier="compiled", bin_width=BIN_WIDTH)
    assert fast.backend == backend_name()

    fast.run(1)  # absorb one-time layout preparation (inverse permutation)
    start = perf_counter()
    fast_scores = fast.run(iterations)
    fast_seconds = (perf_counter() - start) / iterations

    start = perf_counter()
    oracle_scores = oracle.run(iterations)
    oracle_seconds = (perf_counter() - start) / iterations

    assert np.array_equal(oracle_scores, fast_scores)
    speedup = oracle_seconds / fast_seconds

    m = graph.num_edges
    rows = [
        ["pb (numpy oracle)", round(oracle_seconds, 3), round(m / oracle_seconds / 1e6, 1)],
        [f"pb-compiled ({warm['backend']})", round(fast_seconds, 3), round(m / fast_seconds / 1e6, 1)],
    ]
    report(
        "kernel_speed",
        format_table(
            ["kernel", "s/iter", "Medges/s"],
            rows,
            title=f"PB bin/accumulate wall-clock, n={num_vertices} m={m} "
            f"width={BIN_WIDTH}: {speedup:.1f}x "
            f"(warm-up {warm['seconds']:.2f}s, separate)",
        ),
    )
    emit_bench(
        "kernel_speed",
        {
            "pb/numpy_seconds_per_iter": oracle_seconds,
            "pb/compiled_seconds_per_iter": fast_seconds,
            "pb/speedup": speedup,
            "pb/compiled_medges_per_sec": m / fast_seconds / 1e6,
            "warmup/seconds": warm["seconds"],
        },
        meta={
            "source": "bench_kernel_speed",
            "backend": warm["backend"],
            "num_vertices": num_vertices,
            "degree": degree,
            "bin_width": BIN_WIDTH,
            "iterations": iterations,
            "units": "seconds per PageRank iteration (run only; trace/"
            "simulation excluded); warm-up is the one-time backend "
            "compile/JIT cost, not included in iteration time",
        },
    )
    assert speedup >= 10.0
