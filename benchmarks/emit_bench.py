"""Machine-readable benchmark emission: ``BENCH_<name>.json`` files.

The text artifacts under ``results/`` are for humans; this module gives
every ``bench_fig*`` / ``bench_table*`` script a one-call way to also emit
its headline numbers as a schema-versioned JSON document at the repository
root, in the shared metrics schema (``docs/metrics_schema.md``).  Those
files are the cross-commit performance trajectory: successive runs of the
same bench produce directly comparable documents.

Shape of a bench document::

    {
      "schema_version": "2.0",
      "kind": "bench",
      "bench": "fig4_speedup",
      "metrics": {"DPB/urand": 1.74, ...},   # flat name -> finite number
      "meta": {"source": "bench_fig4_speedup",
               "provenance": {"git_commit": ..., "timestamp_utc": ...,
                              "python": ..., "numpy": ...,
                              "default_engine": ...}}
    }

Every document is stamped with provenance (git commit, UTC timestamp,
schema version, python/numpy versions, default simulation engine) so the
bench-regression sentinel (``repro-pb bench --check``) can attribute any
number on the trajectory to the tree and toolchain that produced it.
``REPRO_BENCH_DIR`` redirects emission away from the repository root —
the CI sentinel job uses it to collect fresh documents for comparison
without touching the committed baselines.

Helpers flatten the harness result types: :func:`figure_metrics` turns a
``FigureResult`` into ``{"<series>/<x>": value}`` entries and
:func:`measurement_metrics` extracts a ``Measurement``'s traffic and
modelled-time numbers under a prefix.
"""

from __future__ import annotations

import datetime
import json
import math
import numbers
import os
import subprocess

from repro.obs import SCHEMA_VERSION

__all__ = [
    "emit_bench",
    "figure_metrics",
    "measurement_metrics",
    "provenance",
    "BENCH_PREFIX",
    "BENCH_DIR_ENV",
]

#: File-name prefix of emitted bench documents.
BENCH_PREFIX = "BENCH_"

#: Environment variable overriding the emission directory (CI sentinel).
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def provenance() -> dict[str, object]:
    """Attribution record stamped into every bench document.

    Best-effort by design: a missing git binary or a tarball checkout
    yields ``git_commit: None`` rather than a failed bench run.
    """
    try:
        commit = subprocess.run(
            ["git", "-C", _REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:  # noqa: BLE001 — no git, no repo, no problem
        commit = None
    import platform

    import numpy

    from repro.memsim import DEFAULT_ENGINE

    return {
        "git_commit": commit,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_engine": DEFAULT_ENGINE,
    }


def figure_metrics(fig, *, series: list[str] | None = None) -> dict[str, float]:
    """Flatten a ``FigureResult`` into ``{"<series>/<x>": value}`` metrics."""
    names = series if series is not None else sorted(fig.series)
    metrics: dict[str, float] = {}
    for name in names:
        for x, value in zip(fig.x_values, fig.series[name]):
            metrics[f"{name}/{x}"] = float(value)
    return metrics


def measurement_metrics(measurement, prefix: str) -> dict[str, float]:
    """A ``Measurement``'s headline numbers under ``prefix/``."""
    return {
        f"{prefix}/reads": float(measurement.reads),
        f"{prefix}/writes": float(measurement.writes),
        f"{prefix}/requests": float(measurement.requests),
        f"{prefix}/modelled_seconds": float(measurement.seconds),
        f"{prefix}/instructions": float(measurement.instructions),
    }


def emit_bench(
    bench: str,
    metrics: dict[str, float],
    *,
    meta: dict[str, object] | None = None,
    directory: str | None = None,
) -> str:
    """Write ``BENCH_<bench>.json`` and return its path.

    ``metrics`` must be a flat mapping of names to finite numbers — the
    comparable quantities of the bench.  ``meta`` carries free-form context
    (source script, suite scale, units notes) and is never compared; a
    ``provenance`` record (git commit, timestamp, toolchain, engine) is
    stamped into it automatically.  ``directory`` defaults to the
    ``REPRO_BENCH_DIR`` environment variable, then the repository root.
    """
    if not bench:
        raise ValueError("bench name must be non-empty")
    clean: dict[str, float] = {}
    for name, value in metrics.items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise TypeError(f"metric {name!r} is not a number: {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        clean[name] = value
    if not clean:
        raise ValueError("a bench document needs at least one metric")
    full_meta = dict(meta or {})
    full_meta.setdefault("provenance", provenance())
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "bench": bench,
        "metrics": clean,
        "meta": full_meta,
    }
    if directory is None:
        directory = os.environ.get(BENCH_DIR_ENV) or _REPO_ROOT
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{BENCH_PREFIX}{bench}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
