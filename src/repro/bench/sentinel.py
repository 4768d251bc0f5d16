"""The bench-regression sentinel behind ``repro-pb bench``.

Three layers, separable for testing:

* **loading** — :func:`load_bench_documents` scans a directory for
  ``BENCH_*.json`` documents, rejecting unknown schema *majors* (the
  committed baselines carry the current major);
* **comparison** — :func:`compare_documents` pairs baseline and current
  documents by bench name and checks every shared metric against its
  tolerance: gated metrics regress when ``|current - baseline|`` exceeds
  ``tolerance * max(|baseline|, tiny)``, wall-clock metrics (see
  :data:`WALL_CLOCK_PATTERNS`) are always reported as ``ungated``;
* **measurement** — :func:`measure_plan_dedup` re-runs the plan-dedup
  benchmark in-process (same scale, seed, and metric names as
  ``benchmarks/bench_plan_dedup.py``) so a bare ``repro-pb bench
  --check`` needs no pytest invocation to have fresh numbers.

Tolerances come from ``--tolerance`` (default) plus repeatable
``--noise PATTERN=TOL`` overrides, matched with :mod:`fnmatch` against
``"<bench>/<metric>"`` — most-specific-wins is simply last-match-wins,
and an override can also *gate* a pattern the defaults leave ungated by
matching it before the wall-clock check (overrides take precedence).
"""

from __future__ import annotations

import fnmatch
import glob
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.report import SCHEMA_VERSION

__all__ = [
    "BENCH_GLOB",
    "WALL_CLOCK_PATTERNS",
    "MetricCheck",
    "BenchComparison",
    "load_bench_documents",
    "parse_noise_overrides",
    "compare_documents",
    "measure_plan_dedup",
    "run_bench_command",
]

#: File pattern of bench documents (``benchmarks/emit_bench.py``).
BENCH_GLOB = "BENCH_*.json"

#: ``"<bench>/<metric>"`` patterns that are host wall-clock measurements:
#: reported in every comparison, never gated (``docs/metrics_schema.md``
#: forbids regression-gating wall time — it measures the host, not the
#: code).  ``engine_speed`` and ``kernel_speed`` are entirely host-timing
#: benches; everything else is simulated and deterministic.
WALL_CLOCK_PATTERNS = (
    "*/wall_seconds/*",
    "*/host_rss/*",
    "*accesses_per_sec*",
    "*_per_sec*",
    "*seconds_per_iter*",
    "engine_speed/*",
    "kernel_speed/*",
)

#: Denominator floor so a zero baseline still admits a tolerance band.
_TINY = 1e-12


@dataclass(frozen=True)
class MetricCheck:
    """Verdict on one ``bench/metric`` pair."""

    bench: str
    metric: str
    baseline: float | None
    current: float | None
    tolerance: float
    status: str  # ok | regression | ungated | missing | new

    @property
    def key(self) -> str:
        return f"{self.bench}/{self.metric}"

    @property
    def relative_delta(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        return (self.current - self.baseline) / max(abs(self.baseline), _TINY)

    def as_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "tolerance": self.tolerance,
            "relative_delta": self.relative_delta,
            "status": self.status,
        }


@dataclass
class BenchComparison:
    """All checks of one sentinel run plus the pairing leftovers."""

    checks: list[MetricCheck] = field(default_factory=list)
    baseline_only: list[str] = field(default_factory=list)  # bench names
    current_only: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricCheck]:
        return [c for c in self.checks if c.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bench_comparison",
            "checks": [c.as_dict() for c in self.checks],
            "baseline_only": list(self.baseline_only),
            "current_only": list(self.current_only),
            "regressions": [c.key for c in self.regressions],
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_bench_documents(directory: str) -> dict[str, dict[str, Any]]:
    """``{bench_name: document}`` for every bench file in ``directory``.

    Malformed files and unknown schema majors raise: a sentinel that
    silently skips a baseline would pass on exactly the run it should
    have caught.
    """
    documents: dict[str, dict[str, Any]] = {}
    major = SCHEMA_VERSION.split(".", 1)[0]
    for path in sorted(glob.glob(os.path.join(directory, BENCH_GLOB))):
        with open(path) as handle:
            document = json.load(handle)
        if document.get("kind") != "bench":
            raise ValueError(f"{path}: not a bench document")
        version = str(document.get("schema_version", ""))
        if version.split(".", 1)[0] != major:
            raise ValueError(
                f"{path}: unsupported bench schema {version!r} "
                f"(this build reads major {major})"
            )
        name = document.get("bench")
        if not name:
            raise ValueError(f"{path}: bench document without a bench name")
        documents[name] = document
    return documents


def parse_noise_overrides(entries: list[str]) -> list[tuple[str, float]]:
    """Parse repeated ``--noise PATTERN=TOL`` flags, order-preserving."""
    overrides: list[tuple[str, float]] = []
    for entry in entries:
        pattern, sep, value = entry.rpartition("=")
        if not sep or not pattern:
            raise ValueError(
                f"malformed --noise entry {entry!r} (expected PATTERN=TOL)"
            )
        tolerance = float(value)
        if tolerance < 0 or not math.isfinite(tolerance):
            raise ValueError(f"--noise tolerance must be finite and >= 0: {entry!r}")
        overrides.append((pattern, tolerance))
    return overrides


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _tolerance_for(
    key: str, default: float, overrides: list[tuple[str, float]]
) -> tuple[float, bool]:
    """``(tolerance, gated)`` for ``key`` — overrides beat the wall list."""
    for pattern, tolerance in reversed(overrides):  # last match wins
        if fnmatch.fnmatch(key, pattern):
            return tolerance, True
    if any(fnmatch.fnmatch(key, pattern) for pattern in WALL_CLOCK_PATTERNS):
        return default, False
    return default, True


def compare_documents(
    baselines: dict[str, dict[str, Any]],
    currents: dict[str, dict[str, Any]],
    *,
    tolerance: float = 0.01,
    overrides: list[tuple[str, float]] | None = None,
) -> BenchComparison:
    """Check every current metric against its committed baseline.

    The gate is two-sided: simulated metrics are deterministic, so *any*
    movement beyond tolerance is a behavior change worth a red build —
    an unexplained improvement usually means the bench is no longer
    measuring what the baseline did.
    """
    overrides = overrides or []
    comparison = BenchComparison(
        baseline_only=sorted(set(baselines) - set(currents)),
        current_only=sorted(set(currents) - set(baselines)),
    )
    for bench in sorted(set(baselines) & set(currents)):
        base_metrics = baselines[bench].get("metrics", {})
        cur_metrics = currents[bench].get("metrics", {})
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            key = f"{bench}/{metric}"
            tol, gated = _tolerance_for(key, tolerance, overrides)
            base = base_metrics.get(metric)
            cur = cur_metrics.get(metric)
            if base is None or cur is None:
                # A gated metric appearing or vanishing is a shape
                # change, not noise — red build; ungated ones are only
                # noted.
                if gated:
                    status = "regression"
                else:
                    status = "missing" if cur is None else "new"
                comparison.checks.append(
                    MetricCheck(bench, metric, base, cur, tol, status)
                )
                continue
            base = float(base)
            cur = float(cur)
            if not gated:
                status = "ungated"
            elif abs(cur - base) <= tol * max(abs(base), _TINY):
                status = "ok"
            else:
                status = "regression"
            comparison.checks.append(
                MetricCheck(bench, metric, base, cur, tol, status)
            )
    return comparison


# ----------------------------------------------------------------------
# in-process measurement (the bare ``bench --check`` path)
# ----------------------------------------------------------------------
#: Kept identical to benchmarks/bench_plan_dedup.py so the in-process
#: rerun is comparable against the committed BENCH_plan_dedup.json.
PLAN_DEDUP_SCALE = 0.25
PLAN_DEDUP_SEED = 42


def measure_plan_dedup(*, workers: int | None = None) -> dict[str, Any]:
    """Re-measure the plan-dedup bench; returns a bench document.

    Compiles the suite-family artifacts (tables II-III, figures 3-6) at
    the bench's scale, executes the plan cold against a throwaway cache,
    then warm — the same protocol (and the same metric names) as
    ``benchmarks/bench_plan_dedup.py::test_plan_dedup``.  The cell
    counts and dedup ratio are deterministic; the wall times land in the
    ungated ``wall_seconds/*`` metrics.
    """
    from repro.graphs import load_suite
    from repro.harness.cache import MeasurementCache
    from repro.harness.figures import (
        figure3_spec,
        figure4_spec,
        figure5_spec,
        figure6_spec,
    )
    from repro.harness.tables import table2_spec, table3_spec
    from repro.plan import compile_plan, execute_plan

    graphs = load_suite(seed=PLAN_DEDUP_SEED, scale=PLAN_DEDUP_SCALE)

    def specs():
        return [
            table2_spec(graphs["urand"]),
            table3_spec(graphs),
            figure3_spec(graphs),
            figure4_spec(graphs),
            figure5_spec(graphs),
            figure6_spec(graphs),
        ]

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        cache = MeasurementCache(os.path.join(tmp, "cache"))
        cold_plan = compile_plan(specs())
        start = time.perf_counter()
        execute_plan(cold_plan, workers=workers, cache=cache, label="dedup_cold")
        cold_seconds = time.perf_counter() - start
        warm_plan = compile_plan(specs())
        start = time.perf_counter()
        execute_plan(warm_plan, workers=workers, cache=cache, label="dedup_warm")
        warm_seconds = time.perf_counter() - start

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "bench": "plan_dedup",
        "metrics": {
            "cells/requested": float(cold_plan.cells_requested),
            "cells/unique": float(cold_plan.cells_unique),
            "cells/executed_cold": float(cold_plan.stats.executed),
            "cells/executed_warm": float(warm_plan.stats.executed),
            "cells/cache_hits_warm": float(warm_plan.stats.cache_hits),
            "dedup_ratio": float(cold_plan.dedup_ratio),
            "wall_seconds/cold": float(cold_seconds),
            "wall_seconds/warm": float(warm_seconds),
        },
        "meta": {
            "source": "repro-pb bench (in-process re-measure)",
            "scale": PLAN_DEDUP_SCALE,
            "units": "cells / seconds",
        },
    }


# ----------------------------------------------------------------------
# CLI entry (called from repro.cli._cmd_bench)
# ----------------------------------------------------------------------
def _repo_root() -> str:
    """The checkout root: where the committed BENCH_*.json baselines live."""
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )


def run_bench_command(args) -> int:
    """Implement ``repro-pb bench [--check] [...]``; returns exit code."""
    from repro.utils import format_table

    try:
        overrides = parse_noise_overrides(args.noise)
    except ValueError as exc:
        print(f"repro-pb bench: error: {exc}")
        return 2
    baseline_dir = args.baseline_dir or _repo_root()
    try:
        baselines = load_bench_documents(baseline_dir)
    except (OSError, ValueError) as exc:
        print(f"repro-pb bench: error: {exc}")
        return 2
    if not baselines:
        print(f"repro-pb bench: error: no {BENCH_GLOB} baselines in {baseline_dir}")
        return 2

    if args.current:
        try:
            currents = load_bench_documents(args.current)
        except (OSError, ValueError) as exc:
            print(f"repro-pb bench: error: {exc}")
            return 2
        if not currents:
            print(f"repro-pb bench: error: no {BENCH_GLOB} documents in {args.current}")
            return 2
    else:
        print("re-measuring plan_dedup in-process (no --current given)...")
        fresh = measure_plan_dedup()
        currents = {fresh["bench"]: fresh}
        # Bare mode compares only what it measured.
        baselines = {k: v for k, v in baselines.items() if k in currents}
        if not baselines:
            print(
                "repro-pb bench: error: no committed baseline for "
                f"'plan_dedup' in {baseline_dir}"
            )
            return 2

    comparison = compare_documents(
        baselines, currents, tolerance=args.tolerance, overrides=overrides
    )

    rows = []
    for check in comparison.checks:
        delta = check.relative_delta
        rows.append(
            [
                check.key,
                "-" if check.baseline is None else f"{check.baseline:g}",
                "-" if check.current is None else f"{check.current:g}",
                "-" if delta is None else f"{delta:+.2%}",
                f"{check.tolerance:g}",
                check.status,
            ]
        )
    print(
        format_table(
            ["bench/metric", "baseline", "current", "delta", "tol", "status"],
            rows,
            title=f"bench sentinel (default tolerance {args.tolerance:g}, "
            "wall-clock metrics ungated)",
        )
    )
    for name in comparison.baseline_only:
        print(f"warning: baseline '{name}' has no current document")
    for name in comparison.current_only:
        print(f"warning: current '{name}' has no committed baseline")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(comparison.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[comparison written to {args.json}]")

    regressions = comparison.regressions
    if regressions:
        print(f"\n{len(regressions)} metric(s) beyond tolerance:")
        for check in regressions:
            base = "-" if check.baseline is None else f"{check.baseline:g}"
            cur = "-" if check.current is None else f"{check.current:g}"
            print(f"  {check.key}: {base} -> {cur} (tolerance {check.tolerance:g})")
        return 1 if args.check else 0
    print("\nno bench regressions")
    return 0
