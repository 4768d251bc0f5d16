"""Tests for resuming interrupted runs and for cell-fingerprint stability.

The measurement cache is the only durable record of completed cells: an
interrupted plan resumes by being rerun against the same cache, which
executes only the cells that had not finished.

``data/golden_checkpoint.jsonl`` is a committed record of four cells over
a stable library function, written by the sweep checkpoints this
repository used to keep.  Its recorded fingerprints pin the cell
fingerprint algorithm that fault plans and fleet leases key on: if the
algorithm changes, this golden breaks and forces a deliberate choice.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.harness.cache import MeasurementCache
from repro.parallel import CellFailedError, FaultPlan, RetryPolicy, SweepCell, SweepOptions
from repro.plan import Cell, ExperimentSpec, compile_plan, execute_plan
from repro.utils.fingerprint import cell_fingerprint, stable_digest
from repro.utils.validation import pow2_at_least

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_checkpoint.jsonl"


def _square(x):
    return x * x


def _squares_plan():
    spec = ExperimentSpec(
        name="squares",
        cells={i: Cell(fn=_square, args=(i,)) for i in range(8)},
        build=dict,
    )
    return compile_plan([spec])


def _golden_cells():
    """The fixed cells the committed golden record was written for."""
    return [
        SweepCell(key=("pow2", n), fn=pow2_at_least, args=(n,))
        for n in (1, 3, 17, 1000)
    ]


def _fingerprint_of(cell: SweepCell) -> str:
    return cell_fingerprint(cell.fn, cell.key, cell.args, cell.kwargs)


# ----------------------------------------------------------------------
# kill-and-resume round trip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_kill_and_resume_round_trip(tmp_path, workers):
    cache = MeasurementCache(str(tmp_path))
    expected = {i: i * i for i in range(8)}

    # "Kill" mid-plan: a no-retry run under a crash plan aborts with some
    # cells done and cached.
    crashed = _squares_plan()
    faults = FaultPlan(seed=3, rate=0.5, kinds=("crash",), max_per_cell=1)
    with pytest.raises(CellFailedError):
        execute_plan(
            crashed,
            workers=workers,
            cache=cache,
            options=SweepOptions(policy=RetryPolicy(max_retries=0), fault_plan=faults),
        )
    cached = len(cache)
    assert 0 < cached < 8
    assert crashed.stats.executed == cached

    # Rerun against the same cache with a freshly compiled plan (as a new
    # process would): completed cells are hits, the rest execute, and the
    # results are identical.
    rerun = _squares_plan()
    assert execute_plan(rerun, workers=workers, cache=cache).artifact("squares") == expected
    assert rerun.stats.cache_hits == cached
    assert rerun.stats.executed == 8 - cached

    # A third run is fully warm and computes nothing.
    warm = _squares_plan()
    assert execute_plan(warm, workers=workers, cache=cache).artifact("squares") == expected
    assert warm.stats.cache_hits == 8 and warm.stats.executed == 0


# ----------------------------------------------------------------------
# fingerprint stability
# ----------------------------------------------------------------------
def test_fingerprints_stable_across_processes():
    cells = _golden_cells()
    local = [_fingerprint_of(c) for c in cells]
    with ProcessPoolExecutor(max_workers=1) as pool:
        remote = list(
            pool.map(
                cell_fingerprint,
                [c.fn for c in cells],
                [c.key for c in cells],
                [c.args for c in cells],
                [c.kwargs for c in cells],
            )
        )
    assert local == remote


def test_fingerprints_stable_across_interpreters(tmp_path):
    # A fresh interpreter (fresh hash randomization) must agree: the
    # digest may not depend on Python's salted ``hash``.
    code = (
        "from repro.utils.fingerprint import cell_fingerprint\n"
        "from repro.utils.validation import pow2_at_least\n"
        "print(cell_fingerprint(pow2_at_least, ('pow2', 17), (17,), {}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert out == cell_fingerprint(pow2_at_least, ("pow2", 17), (17,), {})


def test_digest_covers_values_not_identity():
    assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
    assert stable_digest([1, 2]) != stable_digest([2, 1])
    assert stable_digest(1) != stable_digest(1.0)  # type-tagged


# ----------------------------------------------------------------------
# golden pin: the fingerprint algorithm
# ----------------------------------------------------------------------
def test_golden_checkpoint_fingerprints_are_reproduced():
    records = [json.loads(line) for line in GOLDEN_PATH.read_text().splitlines()[1:]]
    recorded = {record["key"]: record["fingerprint"] for record in records}
    assert recorded == {repr(cell.key): _fingerprint_of(cell) for cell in _golden_cells()}


# ----------------------------------------------------------------------
# reproduce --cache: byte-identical artifacts after a mid-plan crash
# ----------------------------------------------------------------------
def test_reproduce_resume_is_byte_identical_after_crash(tmp_path):
    from repro.harness.reproduce import main as reproduce_main

    base = ["--only", "fig7", "--scale", "0.05", "-q", "-q"]
    clean_dir, crash_dir = tmp_path / "clean", tmp_path / "crash"

    assert reproduce_main([*base, "--output", str(clean_dir)]) == 0

    # Crash-fault a no-retry run: it must exit nonzero with partial
    # progress cached...
    cache = str(tmp_path / "cache")
    code = reproduce_main(
        [
            *base,
            "--output",
            str(crash_dir),
            "--cache",
            cache,
            "--max-retries",
            "0",
            "--inject-faults",
            "seed=3,rate=0.4,kinds=crash,max=1",
        ]
    )
    assert code == 1
    assert len(MeasurementCache(cache)) > 0

    # ...and a fault-free rerun with the same --cache dir completes and
    # produces byte-identical output.
    report = tmp_path / "report.json"
    code = reproduce_main(
        [*base, "--output", str(crash_dir), "--cache", cache, "--report", str(report)]
    )
    assert code == 0
    clean = (clean_dir / "fig7_scale_vertices.txt").read_bytes()
    resumed = (crash_dir / "fig7_scale_vertices.txt").read_bytes()
    assert clean == resumed

    data = json.loads(report.read_text())
    assert data["kind"] == "reproduce"
    assert data["plan"]["cache_hits"] > 0
    assert data["resilience"]["failed"] == []
    assert data["config"]["options"]["completed"] is True
