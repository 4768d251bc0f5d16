"""Pooled-run benchmark — what leasing cells to worker processes costs
and buys.

The paper's discipline for propagation blocking applies to the harness
itself: binning (here, leasing cells to workers) only pays when its
overhead is amortized, so the overhead must be *measured*, never hidden.
This bench runs a sleep-dominated sweep (cells whose cost is known
exactly, so every measured delta is pure harness) through
:func:`repro.parallel.run_cells` — serially in-process, then pooled on
2 and 4 local worker processes — and splits each pooled run into its
three phases, taken from the coordinator's lease events:

* **setup**: ``run_cells`` entry to first granted lease — process
  start, TCP join, handshake;
* **steady state**: first lease granted to last lease completed — where
  scaling must show up;
* **teardown**: last completion to return — shutdown handshakes and
  process joins.

It also times the **fixed cost** of one pooled run: 3 trivial cells on
2 workers, the median of 5 runs — what every pooled sweep pays before
its cells' own work.

Everything here is wall clock on a shared host, so every metric lands
in the ungated ``wall_seconds/*`` namespace (``docs/metrics_schema.md``)
— the sentinel tracks the trajectory but does not gate on it.  Emits
``BENCH_distributed.json``.
"""

import statistics
import time

from repro.obs import events as _events
from repro.parallel import SweepCell, SweepStats, run_cells

from benchmarks.emit_bench import emit_bench

#: Per-cell busy time: long enough to dwarf scheduling noise, short
#: enough that 3 runs x 32 cells stay well under a minute of sleep.
CELL_SECONDS = 0.05
N_CELLS = 32
POOLS = [2, 4]
FIXED_COST_RUNS = 5


def sleep_cell(key, seconds=CELL_SECONDS):
    """A cell of exactly known cost (module-level: workers unpickle it)."""
    time.sleep(seconds)
    return key


def trivial_cell(key):
    return key


def _cells():
    return [
        SweepCell(key=i, fn=sleep_cell, args=(i,)) for i in range(N_CELLS)
    ]


def _pooled_run(workers):
    stats = SweepStats()
    with _events.collecting() as bus:
        start = time.perf_counter()
        result = run_cells(
            _cells(), workers=workers, label=f"pool{workers}", stats=stats
        )
        total = time.perf_counter() - start
    assert result == {i: i for i in range(N_CELLS)}
    assert stats.completed == N_CELLS and not stats.serial_fallback
    granted = [e.ts for e in bus.events() if e.kind == "lease_granted"]
    completed = [e.ts for e in bus.events() if e.kind == "lease_completed"]
    setup = min(granted) - start
    steady = max(completed) - min(granted)
    teardown = total - (max(completed) - start)
    return {"total": total, "setup": setup, "steady": steady, "teardown": teardown}


def _fixed_cost():
    cells = [SweepCell(key=i, fn=trivial_cell, args=(i,)) for i in range(3)]
    runs = []
    for _ in range(FIXED_COST_RUNS):
        start = time.perf_counter()
        assert run_cells(cells, workers=2) == {0: 0, 1: 1, 2: 2}
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def test_distributed(benchmark, report):
    def measure():
        serial_start = time.perf_counter()
        serial_result = run_cells(_cells(), workers=1, label="pool_serial")
        serial = time.perf_counter() - serial_start
        assert serial_result == {i: i for i in range(N_CELLS)}
        return serial, {n: _pooled_run(n) for n in POOLS}, _fixed_cost()

    serial, pools, fixed = benchmark.pedantic(measure, rounds=1, iterations=1)

    ideal = {n: N_CELLS * CELL_SECONDS / n for n in POOLS}
    efficiency = {n: ideal[n] / pools[n]["steady"] for n in POOLS}

    lines = [
        f"cells:             {N_CELLS} x {CELL_SECONDS * 1000:.0f}ms sleep",
        f"serial baseline:   {serial:.3f}s",
    ]
    for n in POOLS:
        phases = pools[n]
        lines.append(
            f"{n} workers:         {phases['total']:.3f}s total "
            f"(setup {phases['setup']:.3f}s, steady {phases['steady']:.3f}s, "
            f"teardown {phases['teardown']:.3f}s, "
            f"{efficiency[n] * 100:.0f}% of ideal)"
        )
    lines.append(
        f"fixed cost:        {fixed * 1000:.1f}ms per pooled run "
        f"(3 trivial cells, 2 workers, median of {FIXED_COST_RUNS})"
    )
    report("distributed", "pooled-run cost\n" + "\n".join(lines))

    metrics = {
        "cells": N_CELLS,
        "wall_seconds/serial": serial,
        "wall_seconds/fixed_cost": fixed,
    }
    for n in POOLS:
        phases = pools[n]
        metrics[f"wall_seconds/fleet{n}/total"] = phases["total"]
        metrics[f"wall_seconds/fleet{n}/setup"] = phases["setup"]
        metrics[f"wall_seconds/fleet{n}/steady"] = phases["steady"]
        metrics[f"wall_seconds/fleet{n}/teardown"] = phases["teardown"]
        metrics[f"wall_seconds/fleet{n}/efficiency"] = efficiency[n]
    emit_bench(
        "distributed",
        metrics,
        meta={
            "source": "bench_distributed",
            "cell_seconds": CELL_SECONDS,
            "fleets": POOLS,
            "units": "seconds",
        },
    )

    # Sanity bars, loose enough for a loaded 1-CPU host: every pooled
    # run must finish everything, and one pooled run's fixed cost must
    # stay sub-second (it is tens of milliseconds in practice).
    assert fixed < 1.0
    for n in POOLS:
        assert pools[n]["setup"] < 30.0
