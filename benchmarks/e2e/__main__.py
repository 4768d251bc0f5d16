"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e [--workload NAME ...] [--seed S] [--seconds T]
                             [--trace 0|1] [--out DIR]

Runs each named workload (default: all four) one after another, prints
every metric with its unit, and ends each workload with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1``
reports the per-layer metrics of a traced run instead of the end-to-end
ones.  A failed output check prints no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time

from benchmarks.e2e import metrics
from benchmarks.e2e.workloads import (
    ROOT,
    WORKLOADS,
    CheckFailed,
    ChildFailed,
    Invocation,
    nproc,
    run_workload,
)


def provenance() -> dict:
    """Host and code identity recorded with every result."""
    commit = "unknown"
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    # Only this checkout's own repository names the commit under test.
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        commit = lines[1]
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": nproc(),
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of repro-pb reproduce and serve.",
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        action="extend", choices=tuple(WORKLOADS), metavar="NAME",
        help=f"workloads to run (default: all of {', '.join(WORKLOADS)})",
    )
    parser.add_argument("--seed", type=int, default=42, help="input seed (default 42)")
    parser.add_argument(
        "--seconds", type=float, default=24.0,
        help="measured time per workload pass (default 24)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: a separate traced run reporting per-layer metrics",
    )
    parser.add_argument("--out", metavar="DIR", help="write one JSON file per workload")
    return parser


def _write_out(directory: str, record: dict) -> None:
    os.makedirs(directory, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}" + (
        "-trace" if record["trace"] else ""
    )
    index = 0
    while os.path.exists(os.path.join(directory, f"{stem}-{index}.json")):
        index += 1
    with open(os.path.join(directory, f"{stem}-{index}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("e2e: --seconds must be positive", file=sys.stderr)
        return 2
    # Untimed: byte-compile once, so the first sample of a fresh checkout
    # imports like every later one (and like a user's second command).
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    host = provenance()
    print("provenance: " + json.dumps(host, sort_keys=True))
    units = (
        {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
        if args.trace
        else {name: unit for name, (unit, _, _) in metrics.END_TO_END.items()}
    )
    with Invocation() as invocation:
        for name in args.workloads or list(WORKLOADS):
            started = time.monotonic()
            try:
                result = run_workload(
                    name, seed=args.seed, seconds=args.seconds,
                    trace=bool(args.trace), invocation=invocation,
                )
            except CheckFailed as exc:
                print(f"e2e: {name}: output check failed: {exc}", file=sys.stderr)
                return 1
            except ChildFailed as exc:
                print(f"e2e: {name}: {exc}", file=sys.stderr)
                return 2
            _report(name, result, args, host, units, time.monotonic() - started)
    return 0


def _report(name: str, result: dict, args, host: dict, units: dict, elapsed: float) -> None:
    valid = not result["invalid"]
    print(f"{name} (seed {args.seed}, {elapsed:.1f} s, valid={valid}):")
    for metric, unit in units.items():
        print(f"  {metric:<36} {result['metrics'][metric]:>14.6g} {unit}")
    for reason in result["invalid"]:
        print(f"e2e: {name}: invalid run: {reason}", file=sys.stderr)
    if args.out:
        _write_out(
            args.out,
            {
                "workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "provenance": host, "units": units,
                "valid": valid, **result,
            },
        )
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": result["metrics"][metric], "unit": unit}
            for metric, unit in units.items()
        },
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())
