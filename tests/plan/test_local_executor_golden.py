"""Behavior-preservation pin for the executor-protocol refactor.

``tests/plan/data/golden_local_executor.json`` was captured from the
tree *before* ``execute_plan`` delegated to :class:`~repro.plan.
executors.LocalExecutor`.  This test replays the same scale-0.25
reproduce and asserts every plan cell fingerprint, every artifact byte,
and every stored cell result is still identical — the seam must be
invisible.  Regenerate the golden only for a deliberate fingerprint- or
artifact-affecting change, never to quiet this test.

The golden's ``checkpoint_*`` digest was taken over the sweep checkpoint
the reproduce driver used to write: a header line plus one record per
cell, keyed by the cell's sweep fingerprint.  The run now writes only
cache entries, and the test rebuilds those records from them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.reproduce import ARTIFACTS, plan_specs
from repro.plan import compile_plan
from repro.utils.fingerprint import cell_fingerprint

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_local_executor.json"
SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def plan(golden):
    specs = plan_specs(set(ARTIFACTS), scale=golden["scale"], seed=golden["seed"])
    return compile_plan(specs)


def test_plan_cell_fingerprints_unchanged(golden, plan):
    fingerprints = {plan.labels[fp]: fp for fp in plan.cells}
    assert fingerprints == golden["cell_fingerprints"]


def test_reproduce_artifacts_and_checkpoint_unchanged(golden, plan, tmp_path):
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.harness.reproduce",
            "--scale", str(golden["scale"]), "--seed", str(golden["seed"]),
            "--output", str(out), "--cache", str(cache), "-q", "-q",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]

    artifacts = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
    }
    assert artifacts == golden["artifact_sha256"]

    header = {"kind": "sweep_checkpoint", "label": "plan", "schema_version": "1.0"}
    lines = [json.dumps(header, sort_keys=True)]
    for fingerprint, cell in plan.cells.items():
        entry_path = cache / "objects" / fingerprint[:2] / f"{fingerprint}.json"
        entry = json.loads(entry_path.read_text())
        label = plan.labels[fingerprint]
        record = {
            "encoding": entry["encoding"],
            "fingerprint": cell_fingerprint(cell.fn, label, cell.args, cell.kwargs),
            "key": repr(label),
            "result": entry["result"],
        }
        lines.append(json.dumps(record, sort_keys=True))
    assert len(lines) == golden["checkpoint_cells"]
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert digest == golden["checkpoint_sha256"]
