"""Tests for sweep checkpoints: kill-and-resume, fingerprints, tolerance.

``data/golden_checkpoint.jsonl`` is a committed checkpoint written for a
fixed set of cells over a stable library function.  Resuming from it must
skip every cell — which pins both the file schema *and* the cell
fingerprint algorithm: if either changes, this golden breaks and forces a
deliberate ``CHECKPOINT_SCHEMA_VERSION`` bump (old resume directories
silently recompute, which is safe, but must be a choice, not an
accident).
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.harness.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    SweepCheckpoint,
    checkpoint_path,
    open_checkpoint,
)
from repro.parallel import FaultPlan, CellFailedError, RetryPolicy, SweepCell, SweepStats, run_cells
from repro.utils.fingerprint import cell_fingerprint, stable_digest
from repro.utils.validation import pow2_at_least

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_checkpoint.jsonl"


def _square(x):
    return x * x


def _golden_cells():
    """The fixed cells the committed golden checkpoint was written for."""
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
    cells = [SweepCell(key=i, fn=_square, args=(i,)) for i in range(8)]
    expected = {i: i * i for i in range(8)}

    # "Kill" mid-sweep: a no-retry run under a crash plan aborts with some
    # cells done and checkpointed.
    plan = FaultPlan(seed=3, rate=0.5, kinds=("crash",), max_per_cell=1)
    first = open_checkpoint(str(tmp_path), "unit")
    with pytest.raises(CellFailedError):
        run_cells(
            cells,
            workers=workers,
            label="unit",
            fault_plan=plan,
            policy=RetryPolicy(max_retries=0),
            checkpoint=first,
        )
    assert 0 < len(first) < 8

    # Resume in a fresh checkpoint object (as a new process would):
    # completed cells are skipped, the rest run, results are identical.
    stats = SweepStats()
    second = open_checkpoint(str(tmp_path), "unit")
    assert len(second) == len(first)
    result = run_cells(
        cells, workers=workers, label="unit", checkpoint=second, stats=stats
    )
    assert result == expected
    assert stats.resumed == len(first)
    assert stats.completed == 8 - len(first)

    # A third run resumes everything and computes nothing.
    stats = SweepStats()
    third = open_checkpoint(str(tmp_path), "unit")
    assert (
        run_cells(cells, workers=workers, label="unit", checkpoint=third, stats=stats)
        == expected
    )
    assert stats.resumed == 8 and stats.completed == 0


def test_changed_arguments_are_never_replayed(tmp_path):
    cells = [SweepCell(key="a", fn=_square, args=(2,))]
    first = open_checkpoint(str(tmp_path), "unit")
    assert run_cells(cells, workers=1, checkpoint=first) == {"a": 4}

    # Same key, different argument: the fingerprint differs, so the stale
    # stored result must not be returned.
    changed = [SweepCell(key="a", fn=_square, args=(7,))]
    second = open_checkpoint(str(tmp_path), "unit")
    stats = SweepStats()
    assert run_cells(changed, workers=1, checkpoint=second, stats=stats) == {"a": 49}
    assert stats.resumed == 0


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
# corruption tolerance
# ----------------------------------------------------------------------
def test_corrupt_and_truncated_lines_are_skipped(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    ck = SweepCheckpoint.open(path, label="unit")
    for i in range(3):
        ck.record(f"fp{i}", key=i, result=i * i, seconds=0.0)

    with open(path, "a") as handle:
        handle.write("{not json at all\n")
        handle.write('{"fingerprint": "fp9", "key": "9"}\n')  # missing fields
        handle.write('{"fingerprint": "fp3", "key": "3", "seconds": 0.0, ')  # cut off

    reopened = SweepCheckpoint.open(path, label="unit")
    assert len(reopened) == 3
    for i in range(3):
        assert reopened.has(f"fp{i}")
        assert reopened.result_for(f"fp{i}").result == i * i
    assert not reopened.has("fp3") and not reopened.has("fp9")

    # And the reopened file is still appendable.
    reopened.record("fp4", key=4, result=16, seconds=0.0)
    assert SweepCheckpoint.open(path).has("fp4")


def test_wrong_kind_and_future_major_are_fatal(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "run_report", "schema_version": "1.0"}\n')
    with pytest.raises(ValueError, match="not a sweep checkpoint"):
        SweepCheckpoint.open(str(path))

    path.write_text('{"kind": "sweep_checkpoint", "schema_version": "2.0"}\n')
    with pytest.raises(ValueError, match="unsupported checkpoint schema"):
        SweepCheckpoint.open(str(path))


def test_result_encoding_json_for_plain_pickle_for_rich(tmp_path):
    import numpy as np

    path = str(tmp_path / "ck.jsonl")
    ck = SweepCheckpoint.open(path, label="unit")
    ck.record("plain", key=0, result={"reads": 12, "ok": True}, seconds=0.0)
    ck.record("rich", key=1, result=(np.arange(3), 2.5), seconds=0.0)

    lines = [json.loads(line) for line in open(path)][1:]
    assert {rec["encoding"] for rec in lines} == {"json", "pickle"}

    reopened = SweepCheckpoint.open(path)
    assert reopened.result_for("plain").result == {"reads": 12, "ok": True}
    arr, scalar = reopened.result_for("rich").result
    assert scalar == 2.5 and np.array_equal(arr, np.arange(3))


# ----------------------------------------------------------------------
# golden pin: schema + fingerprint algorithm
# ----------------------------------------------------------------------
def test_golden_checkpoint_header_pins_schema():
    header = json.loads(GOLDEN_PATH.read_text().splitlines()[0])
    assert header["kind"] == "sweep_checkpoint"
    assert header["schema_version"] == CHECKPOINT_SCHEMA_VERSION


def test_golden_checkpoint_resumes_every_cell(tmp_path):
    # Copy the committed golden into place as the resume file.
    target = checkpoint_path(str(tmp_path), "golden")
    Path(target).write_text(GOLDEN_PATH.read_text())

    cells = _golden_cells()
    stats = SweepStats()
    ck = open_checkpoint(str(tmp_path), "golden")
    result = run_cells(cells, workers=1, label="golden", checkpoint=ck, stats=stats)
    # All resumed — proving today's fingerprints match the committed ones —
    # and the stored results equal a fresh computation.
    assert stats.resumed == len(cells) and stats.completed == 0
    assert result == {("pow2", n): pow2_at_least(n) for n in (1, 3, 17, 1000)}


# ----------------------------------------------------------------------
# reproduce --resume: byte-identical artifacts after a mid-sweep crash
# ----------------------------------------------------------------------
def test_reproduce_resume_is_byte_identical_after_crash(tmp_path):
    from repro.harness.reproduce import main as reproduce_main

    base = ["--only", "fig7", "--scale", "0.05", "-q", "-q"]
    clean_dir, crash_dir = tmp_path / "clean", tmp_path / "crash"

    assert reproduce_main([*base, "--output", str(clean_dir)]) == 0

    # Crash-fault a no-retry run: it must exit nonzero with partial
    # progress checkpointed...
    ck = str(tmp_path / "ck")
    code = reproduce_main(
        [
            *base,
            "--output",
            str(crash_dir),
            "--resume",
            ck,
            "--max-retries",
            "0",
            "--inject-faults",
            "seed=3,rate=0.4,kinds=crash,max=1",
        ]
    )
    assert code == 1
    # Since the plan layer, reproduce runs all artifacts as one plan, so
    # the checkpoint is kept under the plan's label rather than per-figure.
    assert len(open_checkpoint(ck, "plan")) > 0

    # ...and a fault-free rerun with the same --resume dir completes and
    # produces byte-identical output.
    report = tmp_path / "report.json"
    code = reproduce_main(
        [*base, "--output", str(crash_dir), "--resume", ck, "--report", str(report)]
    )
    assert code == 0
    clean = (clean_dir / "fig7_scale_vertices.txt").read_bytes()
    resumed = (crash_dir / "fig7_scale_vertices.txt").read_bytes()
    assert clean == resumed

    data = json.loads(report.read_text())
    assert data["kind"] == "reproduce"
    assert data["resilience"]["resumed"] > 0
    assert data["resilience"]["failed"] == []
    assert data["config"]["options"]["completed"] is True
