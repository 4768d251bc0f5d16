"""Tests for the process-parallel sweep executor and its figure wiring."""

import os

import pytest

from repro.graphs import load_suite
from repro.harness.figures import (
    figure7_scaling_vertices,
    figure8_scaling_degree,
    figure9_bin_width_communication,
)
from repro.harness.tables import table3
from repro.obs.spans import disable, enable
from repro.parallel import SweepCell, default_workers, run_cells


def _square(x):
    return x * x


def _boom():
    raise RuntimeError("cell failed")


def test_run_cells_serial_matches_parallel():
    cells = [SweepCell(key=i, fn=_square, args=(i,)) for i in range(10)]
    serial = run_cells(cells, workers=1)
    # Capped to the runner's usable CPUs (min 2 keeps pool mode live on
    # single-core CI) so low-core runners aren't oversubscribed.
    parallel = run_cells(cells, workers=max(2, min(3, default_workers())))
    assert serial == parallel == {i: i * i for i in range(10)}


def test_run_cells_empty():
    assert run_cells([], workers=4) == {}


def test_run_cells_records_per_cell_spans():
    recorder = enable()
    try:
        run_cells(
            [SweepCell(key="a", fn=_square, args=(2,))], workers=1, label="unit"
        )
    finally:
        disable()
    paths = recorder.paths()
    assert "sweep[unit]" in paths
    assert "sweep[unit]/cell[a]" in paths
    assert recorder.stats("sweep[unit]/cell[a]").count == 1


def test_run_cells_propagates_worker_errors():
    with pytest.raises(RuntimeError, match="cell failed"):
        run_cells([SweepCell(key=0, fn=_boom)], workers=2)


def test_run_cells_failure_names_cell_and_chains_original():
    # Regression: a worker failure used to surface as an anonymous
    # RuntimeError.  It must now name the failing cell and chain the
    # original exception (whose message and type survive pickling back
    # from the worker) — and the healthy cells must still complete.
    from repro.parallel import CellFailedError, SweepStats

    cells = [
        SweepCell(key="ok0", fn=_square, args=(3,)),
        SweepCell(key="bad", fn=_boom),
        SweepCell(key="ok1", fn=_square, args=(4,)),
    ]
    stats = SweepStats()
    with pytest.raises(CellFailedError) as excinfo:
        run_cells(cells, workers=2, stats=stats)
    err = excinfo.value
    assert err.key == "bad"
    assert "bad" in str(err) and "cell failed" in str(err)
    assert isinstance(err.__cause__, RuntimeError)
    assert str(err.__cause__) == "cell failed"
    assert stats.completed == 2  # ok0 and ok1 finished despite the failure
    assert stats.failed == ["'bad'"]


def test_default_workers_positive():
    assert default_workers() >= 1


def test_workers_zero_means_auto():
    cells = [SweepCell(key=i, fn=_square, args=(i,)) for i in range(3)]
    assert run_cells(cells, workers=0) == {i: i * i for i in range(3)}


# ----------------------------------------------------------------------
# figure identity: parallel must reproduce serial outputs exactly
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_graphs():
    return load_suite(scale=0.02, seed=42)


def test_fig7_parallel_identical():
    sizes = [1024, 2048, 4096]
    serial = figure7_scaling_vertices(sizes)
    parallel = figure7_scaling_vertices(sizes, workers=2)
    assert serial == parallel


def test_fig8_parallel_identical():
    degrees = [4, 8]
    serial = figure8_scaling_degree(degrees, num_vertices=2048)
    parallel = figure8_scaling_degree(degrees, num_vertices=2048, workers=2)
    assert serial == parallel


def test_fig9_sweep_parallel_identical(tiny_graphs):
    widths = [64, 512]
    fig_a = figure9_bin_width_communication(tiny_graphs, widths)
    fig_b = figure9_bin_width_communication(tiny_graphs, widths, workers=2)
    assert fig_a == fig_b


def test_suite_plan_parallel_identical(tiny_graphs):
    few = {name: tiny_graphs[name] for name in list(tiny_graphs)[:2]}
    serial = table3(few, methods=("baseline", "dpb"))
    parallel = table3(few, methods=("baseline", "dpb"), workers=2)
    assert serial.rows == parallel.rows
    for key in serial.measurements:
        assert (
            serial.measurements[key].counters.as_dict()
            == parallel.measurements[key].counters.as_dict()
        )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="wall-clock reduction needs >= 2 CPUs",
)
def test_parallel_wall_clock_reduction():
    from time import perf_counter

    from repro.harness.figures import figure7_spec
    from repro.plan import compile_plan

    # figure7_spec keys cells by size, so only distinct sizes give the
    # pool more than one cell to overlap.
    sizes = [13312, 14336, 15360, 16384]
    assert compile_plan([figure7_spec(sizes)]).cells_unique == 4

    # Two timed runs (serial, then pooled) are too noisy to compare on a
    # 2-CPU host.  Measure the overlap inside one pooled run instead: the
    # cells' summed compute time must clearly exceed the run's wall time.
    recorder = enable()
    try:
        start = perf_counter()
        figure7_scaling_vertices(sizes, workers=2)
        wall_s = perf_counter() - start
    finally:
        disable()
    cell_s = sum(
        recorder.stats(path).seconds
        for path in recorder.paths()
        if "sweep[" in path and "/cell[" in path
    )
    assert cell_s / wall_s > 1.2
