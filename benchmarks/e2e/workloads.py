"""The four workloads: what each runs, how long, and what it checks.

Everything timed runs in a fresh child process (:mod:`benchmarks.e2e.
child`); this module only schedules children, derives metrics from
what they report, and checks their outputs.  Scratch space (command
outputs, measurement caches) lives in one directory per invocation
under ``benchmarks/e2e/.work``, removed when the invocation ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e import metrics

__all__ = [
    "WORKLOADS",
    "SCALE",
    "CheckFailed",
    "ChildFailed",
    "Invocation",
    "nproc",
    "run_workload",
]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

#: Suite scale of every reproduce command.  ``--quick`` (0.25) takes
#: about 30 s a command, too long to repeat within one run's time budget.
SCALE = 0.05
#: Fewest commands behind one run's medians, whatever ``--seconds`` says.
MIN_COMMANDS = 5
#: The light step lasts ``--seconds`` (24 s: 192 requests at 8 qps);
#: overload lasts this share of it (10 s at 80 qps).
OVERLOAD_PER_LIGHT = 10 / 24
#: A serve step whose generator ran later than this at p99 is invalid.
#: Overload shares its event loop and the interpreter lock with a
#: saturated server, so its generator runs 5-20 ms late at p99; against
#: latencies of hundreds of milliseconds and a 1 s deadline that is
#: immaterial, so its limit is a tenth of the deadline.
LATE_LIMIT_MS = {"light": 10.0, "overload": 100.0}
CHILD_TIMEOUT_S = 170.0
ARTIFACT_COUNT = 12

WORKLOADS = {
    "reproduce-cold": "every artifact from an empty cache, serially: cache-"
    "simulator replay and graph build are most of the wall",
    "reproduce-pool": "the reproduce-cold command on a two-worker process pool: "
    "the only workload with pool dispatch on the critical path",
    "reproduce-warm": "the reproduce-cold command against a filled cache: zero "
    "cells execute, so start-up, graph build and plan compile dominate",
    "serve-open": "open-loop queries to the PPR server: light (8 qps for 24 s, "
    "evenly paced) exercises solve and cache, overload (80 qps Poisson for 10 s, "
    "1 s client deadline) batch throughput",
}


class CheckFailed(Exception):
    """An output check failed: the run must not report metrics."""


class ChildFailed(Exception):
    """A child process crashed, printed no result, or left nothing to measure."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _child(args: list[str]) -> tuple[dict, float, float]:
    """Run one child to completion: ``(result, spawned_at, exited_at)``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(  # on timeout the child is killed and reaped
            [sys.executable, "-m", "benchmarks.e2e.child", *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args[:3]} exceeded {CHILD_TIMEOUT_S:g} s") from exc
    exited = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildFailed(f"child {args[:3]} exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), spawned, exited


class Invocation:
    """What the workloads of one invocation share, for that invocation only.

    A scratch directory under ``.work`` (removed on exit), the first
    artifact hashes seen per seed (so cold, pool and warm runs of a seed
    in one invocation check one another), and one filled measurement
    cache per seed for ``reproduce-warm`` (``reproduce-cold``'s, when it
    ran first).  Nothing outlives the invocation, so no run reads what
    another commit's code computed.
    """

    def __init__(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=WORK, prefix="run-")
        self.artifacts: dict[int, dict[str, str]] = {}
        self.filled: dict[int, str] = {}

    def __enter__(self) -> "Invocation":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def mkdtemp(self, prefix: str) -> str:
        return tempfile.mkdtemp(dir=self.dir, prefix=prefix)

    def check_artifacts(self, seed: int, directory: str) -> None:
        """Every command of a seed must write the same bytes; for seed 42
        those are pinned by ``golden.json``."""
        hashes = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as handle:
                hashes[name] = hashlib.sha256(handle.read()).hexdigest()
        if len(hashes) != ARTIFACT_COUNT:
            raise CheckFailed(
                f"reproduce wrote {len(hashes)} artifacts, expected {ARTIFACT_COUNT}"
            )
        if seed not in self.artifacts:
            golden = json.loads(GOLDEN.read_text())
            pinned = golden["seed"] == seed and golden["scale"] == SCALE
            self.artifacts[seed] = golden["artifact_sha256"] if pinned else hashes
        expected = self.artifacts[seed]
        differing = sorted(
            name for name in hashes.keys() | expected.keys()
            if hashes.get(name) != expected.get(name)
        )
        if differing:
            raise CheckFailed(
                f"seed {seed}: artifacts differ from an earlier command: "
                + ", ".join(differing)
            )


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------
def _run_command(
    inv: Invocation, seed: int, workers: int, cache: str, traced: bool
) -> dict:
    """One checked ``reproduce`` command in a fresh process."""
    output = inv.mkdtemp("out-")
    args = [
        "reproduce", "--seed", str(seed), "--scale", repr(SCALE),
        "--workers", str(workers), "--cache", cache, "--output", output,
    ]
    try:
        result, spawned, exited = _child(args + (["--trace"] if traced else []))
        if result["rc"] != 0 or result["setup_at"] is None:
            raise ChildFailed(f"reproduce exited {result['rc']}")
        inv.check_artifacts(seed, output)
    finally:
        shutil.rmtree(output, ignore_errors=True)
    result["wall_s"] = exited - spawned
    result["setup_s"] = result["setup_at"] - spawned
    result["workers"] = workers
    return result


def _cell_seconds(cache: str, executed: int) -> list[float]:
    """The compute seconds the sweep recorded for each cell it wrote to
    ``cache`` (entries ``objects/<xx>/<fingerprint>.json``), read untimed."""
    seconds = [
        json.loads(path.read_text())["seconds"]
        for path in Path(cache, "objects").glob("*/*.json")
        if not path.name.startswith(".tmp_")
    ]
    if len(seconds) != executed:
        raise ChildFailed(
            f"cache holds {len(seconds)} entries for {executed} executed cells; "
            "has its layout changed?"
        )
    return seconds


def _filled_cache(inv: Invocation, seed: int) -> str:
    """Untimed: a cache holding every cell of ``seed``."""
    if seed not in inv.filled:
        cache = inv.mkdtemp("cache-")
        _run_command(inv, seed, min(2, nproc()), cache, traced=False)
        inv.filled[seed] = cache
    return inv.filled[seed]


def _reproduce_pass(
    inv: Invocation, name: str, seed: int, seconds: float, traced: bool
) -> list[dict]:
    workers = min(2, nproc()) if name == "reproduce-pool" else 1
    warm = _filled_cache(inv, seed) if name == "reproduce-warm" else None
    commands: list[dict] = []
    started = time.monotonic()
    while len(commands) < MIN_COMMANDS or time.monotonic() - started < seconds:
        cache = warm or inv.mkdtemp("cache-")
        result = _run_command(inv, seed, workers, cache, traced)
        if warm and result["stats"]["executed"]:
            raise CheckFailed(
                f"warm run executed {result['stats']['executed']} cell(s); expected 0"
            )
        if not warm:  # the first filled cache of a seed serves reproduce-warm
            result["cell_s"] = _cell_seconds(cache, result["stats"]["executed"])
            if seed in inv.filled:
                shutil.rmtree(cache, ignore_errors=True)
            else:
                inv.filled[seed] = cache
        commands.append(result)
    return commands


def _probe_problems(traces: list[dict], every_probe_fires: bool) -> list[str]:
    """Why a traced run's layers cannot be trusted (empty when they can).

    Only ``reproduce-cold`` and ``serve-open`` run every probed layer in
    the traced process: pool workers run ``reproduce-pool``'s cells and
    ``reproduce-warm`` runs none, so cell layers stay at zero calls there.
    """
    problems = sorted({f"probe target not found: {m}" for t in traces for m in t["missing"]})
    if every_probe_fires:
        fired: dict[str, int] = {}
        for trace in traces:
            for target, calls in trace["fired"].items():
                fired[target] = fired.get(target, 0) + calls
        problems += [f"probe never fired: {t}" for t, calls in sorted(fired.items()) if not calls]
    return problems


def _run_reproduce(
    inv: Invocation, name: str, seed: int, seconds: float, trace: bool
) -> dict:
    """Traced runs split ``seconds`` between an untraced pass (the overhead
    baseline) and a traced pass, so they take as long as untraced runs."""
    if trace:
        seconds /= 2
    untraced = _reproduce_pass(inv, name, seed, seconds, False)
    attempted = sum(c["stats"]["cells_unique"] for c in untraced)
    resolved = sum(
        c["stats"]["executed"] + c["stats"]["cache_hits"] + c["stats"]["resumed"]
        for c in untraced
    )
    out = {
        "attempted": attempted,
        "failed": attempted - resolved,
        "invalid": [],
        "samples": {"commands": [_strip(c) for c in untraced]},
    }
    if trace:
        traced = _reproduce_pass(inv, name, seed, seconds, True)
        out["metrics"] = metrics.reproduce_layers(
            traced, untraced, untraced[0]["workers"]
        )
        out["samples"]["traced"] = [_strip(c) for c in traced]
        out["invalid"] = _probe_problems(
            [c["trace"] for c in traced], every_probe_fires=name == "reproduce-cold"
        )
    else:
        out["metrics"] = metrics.reproduce_end_to_end(untraced)
    return out


def _strip(result: dict) -> dict:
    """A child result without bulky per-cell or per-request lists."""
    dropped = {"puts", "latency_s", "due_s", "cell_s"}
    slim = {k: v for k, v in result.items() if k not in dropped}
    if isinstance(slim.get("trace"), dict):
        slim["trace"] = {k: v for k, v in slim["trace"].items() if k not in dropped}
    return slim


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _serve_step(inv: Invocation, step: str, seed: int, seconds: float, traced: bool) -> dict:
    cache = inv.mkdtemp("serve-")
    args = ["serve", "--step", step, "--seed", str(seed), "--seconds", repr(seconds),
            "--cache", cache]
    try:
        result, spawned, _ = _child(args + (["--trace"] if traced else []))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    result["setup_s"] = result["setup_at"] - spawned
    if step == "setup":
        return result
    check = result["check"]
    if check["mismatches"] or not check["checked"]:
        raise CheckFailed(
            f"serve {step}: {len(check['mismatches'])} of {check['checked']} sampled "
            "answers differ from personalized_pagerank"
        )
    if result["lost"]:
        raise CheckFailed(f"serve {step}: {result['lost']} request(s) never resolved")
    result["invalid"] = []
    if result["late_ms_p99"] > LATE_LIMIT_MS[step]:
        result["invalid"].append(
            f"{step}: generator lateness p99 {result['late_ms_p99']:.1f} ms "
            f"over {LATE_LIMIT_MS[step]:g} ms"
        )
    if result["threads"] > nproc():
        result["invalid"].append(
            f"{step}: {result['threads']} threads on {nproc()} CPUs"
        )
    return result


def _serve_pass(inv: Invocation, seed: int, seconds: float, traced: bool) -> dict[str, dict]:
    return {
        "light": _serve_step(inv, "light", seed, seconds, traced),
        "overload": _serve_step(inv, "overload", seed, OVERLOAD_PER_LIGHT * seconds, traced),
    }


def _run_serve(inv: Invocation, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced: set-up probe, light, overload.  Traced: an untraced
    overload step (the overhead baseline), then traced light and overload."""
    if trace:
        baseline = _serve_step(inv, "overload", seed, OVERLOAD_PER_LIGHT * seconds, False)
        steps = _serve_pass(inv, seed, seconds, True)
        samples = {"baseline": _strip(baseline)}
    else:
        probe = _serve_step(inv, "setup", seed, 0.0, False)
        steps = _serve_pass(inv, seed, seconds, False)
        samples = {"setup": _strip(probe)}
    out = {
        "attempted": sum(s["sent"] for s in steps.values()),
        "failed": sum(s["errors"] for s in steps.values()),
        "invalid": [reason for s in steps.values() for reason in s["invalid"]],
        "samples": {**samples, **{k: _strip(v) for k, v in steps.items()}},
    }
    if trace:
        out["metrics"] = metrics.serve_layers(steps, baseline)
        out["invalid"] += _probe_problems(
            [s["trace"] for s in steps.values()], every_probe_fires=True
        )
    else:
        setups = [probe["setup_s"], steps["light"]["setup_s"], steps["overload"]["setup_s"]]
        out["metrics"] = metrics.serve_end_to_end(setups, steps["light"], steps["overload"])
    return out


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, invocation: Invocation
) -> dict:
    """Run one workload; raises :class:`CheckFailed` on a wrong output.

    The result's ``invalid`` lists why its numbers cannot be trusted
    (a late load generator, too many threads, a probe that is gone or
    never fired); it is empty for a valid run.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if name == "serve-open":
        return _run_serve(invocation, seed, seconds, trace)
    return _run_reproduce(invocation, name, seed, seconds, trace)
