"""Self-tests of the benchmark's tracing on tiny cases.

Run by explicit path (they are not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Reproduce runs at the benchmark's own scale (0.05, a few seconds); serve
steps run on a 512-vertex graph.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import child
from benchmarks.e2e.tracing import REPRODUCE_PROBES
from benchmarks.e2e.workloads import ROOT, SCALE

TINY_VERTICES = 512


def _child(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_reproduce(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("reproduce")
    return _child(
        "reproduce", "--seed", "42", "--scale", repr(SCALE), "--workers", "1",
        "--cache", str(tmp / "cache"), "--output", str(tmp / "out"), "--trace",
    )


def test_every_reproduce_wrapper_fires(traced_reproduce):
    trace = traced_reproduce["trace"]
    assert trace["missing"] == []
    targets = {target for target, _, _ in REPRODUCE_PROBES} | {
        "repro.memsim.cache:simulate",
        "repro.harness.cache:MeasurementCache.get",
        "repro.harness.cache:MeasurementCache.put",
        "repro.plan.executor:execute_plan",
    }
    assert targets <= trace["fired"].keys()
    assert [t for t, calls in trace["fired"].items() if calls == 0] == []


def test_self_time_plus_unattributed_is_the_wall(traced_reproduce):
    trace = traced_reproduce["trace"]
    unattributed = trace["wall_s"] - trace["root_s"]
    assert unattributed >= 0
    assert sum(trace["self_s"].values()) + unattributed == pytest.approx(
        trace["wall_s"], rel=1e-9
    )


def test_trace_separates_generation_from_replay(traced_reproduce):
    trace = traced_reproduce["trace"]
    assert trace["self_s"]["kernels.trace_gen"] > 0
    assert trace["self_s"]["memsim.replay"] > 0
    assert trace["counters"]["kernels.trace_accesses"] > 0
    assert traced_reproduce["stats"]["executed"] == traced_reproduce["stats"]["cells_unique"]


def test_every_serve_wrapper_fires(tmp_path):
    result = child.run_serve_step(
        "light", seed=3, seconds=3.0, cache_dir=str(tmp_path), trace=True,
        num_vertices=TINY_VERTICES,
    )
    trace = result["trace"]
    assert trace["missing"] == []
    assert [t for t, calls in trace["fired"].items() if calls == 0] == []
    assert len(trace["fired"]) == 6
    assert result["check"]["mismatches"] == [] and result["check"]["checked"] > 0


def test_stalled_solve_inflates_later_requests(tmp_path, monkeypatch):
    """Latency runs from the due time, so a stall shows on the requests
    that were due while it lasted (no coordinated omission)."""
    import time

    import repro.serve.server as server

    real = server.multi_personalized_pagerank
    stalled: list[float] = []

    def stall_once(*args, **kwargs):
        if not stalled:
            stalled.append(time.monotonic())
            time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(server, "multi_personalized_pagerank", stall_once)
    result = child.run_serve_step(
        "light", seed=5, seconds=3.0, cache_dir=str(tmp_path), trace=False,
        num_vertices=TINY_VERTICES,
    )
    assert stalled
    # The next request is due one gap (at most 138 ms) after the stalled
    # one, so it waits out at least the stall's last 62 ms.
    due, latency = result["due_s"], result["latency_s"]
    first = min(range(len(due)), key=lambda i: due[i])
    later = [
        latency[i] for i in range(len(due))
        if due[first] < due[i] < due[first] + 0.15
    ]
    assert later and max(later) > 0.05
    quiet = [latency[i] for i in range(len(due)) if due[i] > due[first] + 1.0]
    assert quiet and min(quiet) < 0.05
