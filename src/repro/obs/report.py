"""Schema-versioned run reports: the machine-readable measurement trail.

The paper's evidence is numbers — PCM counter readings, per-phase
breakdowns, modelled times.  A :class:`RunReport` captures one run's
numbers in a stable, documented JSON shape (see ``docs/metrics_schema.md``)
so results can be archived, diffed across commits (``repro-pb report``),
and regression-gated, instead of living only in printed text tables.

Reports are plain dataclasses with explicit ``to_dict``/``from_dict``
converters; the round trip ``RunReport.from_json(r.to_json())`` is exact
and is pinned by ``tests/obs``.  The schema version is bumped whenever a
field is added, removed, renamed, or changes units; consumers should
reject majors they do not know.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SCHEMA_VERSION",
    "GraphMeta",
    "RunConfig",
    "CounterSummary",
    "TimeSummary",
    "Convergence",
    "RunReport",
    "counter_summary",
    "report_from_measurement",
    "save_reports",
    "load_reports",
]

#: Version of the report JSON schema (``docs/metrics_schema.md`` is the
#: authoritative description).  Bump on any field or unit change: minor
#: for additive changes (older readers of the same major still load the
#: file), major for anything incompatible.
#:
#: 1.1 added the optional ``metrics`` (histograms/series from
#: :mod:`repro.obs.metrics`) and ``drift`` (model-vs-simulated records
#: from :mod:`repro.obs.drift`) sections.
#:
#: 1.2 added the optional ``resilience`` section (sweep retry/resume
#: counters from :class:`repro.parallel.resilience.SweepStats`, written
#: by ``reproduce --report``) and the ``"reproduce"`` report kind.
#:
#: 1.3 added the optional ``plan`` section (cell DAG counters from
#: :class:`repro.plan.compiler.PlanStats`: cells requested / unique /
#: cache hits / resumed / executed plus the dedup ratio, written by
#: ``reproduce --report`` since artifacts compile to one shared plan).
#:
#: 1.4 added the optional ``fleet`` section (the cross-process event
#: collector's fold from :meth:`repro.obs.events.EventBus.fleet_summary`:
#: terminal per-cell accounting — executed + cached + resumed = total —
#: with retries/faults/timeouts itemized, per-worker busy time and
#: resource peaks, event counts by kind, and per-cell GAIL per-edge
#: decompositions).
#:
#: 1.5 added the optional ``serve`` section (the query layer's counter
#: snapshot from :meth:`repro.serve.server.ServeStats.to_dict`:
#: requests, batches, coalescing and occupancy, cache hit rate, injected
#: faults/retries, and update/invalidation accounting) and the
#: ``"serve"`` report kind.
#:
#: 2.0 removed ``resilience.resumed``, the reproduce report's
#: ``config.options.resume`` and the fleet section's ``cells.resumed``
#: with sweep checkpoints: an interrupted run resumes through the
#: measurement cache, so resumed cells count as cache hits.  The plan
#: section keeps ``resumed``, always 0.
SCHEMA_VERSION = "2.0"


@dataclass(frozen=True)
class GraphMeta:
    """Identity of the measured graph.

    ``scale`` and ``seed`` are recorded when the graph came from the
    deterministic suite generators, so the exact input can be regenerated.
    """

    name: str
    num_vertices: int
    num_edges: int
    scale: float | None = None
    seed: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "scale": self.scale,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GraphMeta":
        return cls(
            name=data["name"],
            num_vertices=int(data["num_vertices"]),
            num_edges=int(data["num_edges"]),
            scale=data.get("scale"),
            seed=data.get("seed"),
        )


@dataclass(frozen=True)
class RunConfig:
    """Kernel and engine configuration of the run."""

    method: str
    # Mirrors repro.memsim.DEFAULT_ENGINE; obs imports nothing from the
    # rest of repro, so the name is duplicated rather than imported.
    engine: str = "stackdist"
    num_iterations: int = 1
    options: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "engine": self.engine,
            "num_iterations": self.num_iterations,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        return cls(
            method=data["method"],
            engine=data.get("engine", "flru"),
            num_iterations=int(data.get("num_iterations", 1)),
            options=dict(data.get("options", {})),
        )


@dataclass(frozen=True)
class CounterSummary:
    """Simulated DRAM traffic, in units of cache-line transfers.

    The per-stream breakdown mirrors :class:`repro.memsim.MemCounters`
    (keys are :class:`~repro.memsim.trace.Stream` values); the per-phase
    breakdown keys the kernel's phase labels ("binning", "accumulate", ...).
    """

    reads_by_stream: dict[str, int]
    writes_by_stream: dict[str, int]
    reads_by_phase: dict[str, int]
    writes_by_phase: dict[str, int]
    total_reads: int
    total_writes: int
    total_requests: int
    requests_per_edge: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "reads_by_stream": dict(self.reads_by_stream),
            "writes_by_stream": dict(self.writes_by_stream),
            "reads_by_phase": dict(self.reads_by_phase),
            "writes_by_phase": dict(self.writes_by_phase),
            "total_reads": self.total_reads,
            "total_writes": self.total_writes,
            "total_requests": self.total_requests,
            "requests_per_edge": self.requests_per_edge,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CounterSummary":
        return cls(
            reads_by_stream={k: int(v) for k, v in data["reads_by_stream"].items()},
            writes_by_stream={k: int(v) for k, v in data["writes_by_stream"].items()},
            reads_by_phase={k: int(v) for k, v in data["reads_by_phase"].items()},
            writes_by_phase={k: int(v) for k, v in data["writes_by_phase"].items()},
            total_reads=int(data["total_reads"]),
            total_writes=int(data["total_writes"]),
            total_requests=int(data["total_requests"]),
            requests_per_edge=float(data["requests_per_edge"]),
        )


@dataclass(frozen=True)
class TimeSummary:
    """Modelled execution time (seconds) with its resource components.

    ``phase_seconds`` is present only for kernels with a per-phase
    instruction model (PB/DPB — the Figure 11 breakdown).
    """

    modelled_seconds: float
    memory_bound_seconds: float
    instruction_bound_seconds: float
    bottleneck: str
    phase_seconds: dict[str, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "modelled_seconds": self.modelled_seconds,
            "memory_bound_seconds": self.memory_bound_seconds,
            "instruction_bound_seconds": self.instruction_bound_seconds,
            "bottleneck": self.bottleneck,
            "phase_seconds": dict(self.phase_seconds)
            if self.phase_seconds is not None
            else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TimeSummary":
        phase = data.get("phase_seconds")
        return cls(
            modelled_seconds=float(data["modelled_seconds"]),
            memory_bound_seconds=float(data["memory_bound_seconds"]),
            instruction_bound_seconds=float(data["instruction_bound_seconds"]),
            bottleneck=data["bottleneck"],
            phase_seconds={k: float(v) for k, v in phase.items()}
            if phase is not None
            else None,
        )


@dataclass(frozen=True)
class Convergence:
    """Iteration history of a to-convergence PageRank run."""

    iterations: int
    converged: bool
    tolerance: float
    deltas: tuple[float, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "tolerance": self.tolerance,
            "deltas": list(self.deltas),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Convergence":
        return cls(
            iterations=int(data["iterations"]),
            converged=bool(data["converged"]),
            tolerance=float(data["tolerance"]),
            deltas=tuple(float(d) for d in data.get("deltas", [])),
        )


@dataclass(frozen=True)
class RunReport:
    """One run's complete machine-readable record.

    ``kind`` is ``"measure"`` for simulated-traffic runs (counters and
    time populated) or ``"pagerank"`` for executable convergence runs
    (convergence populated); absent sections are ``None``.
    ``wall_spans`` holds the host wall-clock span aggregation of
    :mod:`repro.obs.spans` when recording was active during the run.

    Since schema 1.1, ``metrics`` optionally holds a serialized
    :class:`repro.obs.metrics.MetricsRegistry` snapshot (histograms +
    series collected during the run) and ``drift`` a serialized
    :class:`repro.obs.drift.DriftSummary` (analytic-model-vs-simulation
    records); both are ``None`` when not collected.

    Since schema 1.2, ``kind`` may also be ``"reproduce"`` (a whole
    reproduction run rather than one measurement) and ``resilience``
    optionally holds the sweep executor's fault-tolerance counters
    (:meth:`repro.parallel.resilience.SweepStats.as_dict`: completed /
    retried cells, injected faults, pool restarts, failures).

    Since schema 1.3, ``plan`` optionally holds the cell-DAG counters of
    the run's compiled experiment plan
    (:meth:`repro.plan.compiler.PlanStats.as_dict`: cells requested /
    unique / cache hits / executed and the dedup ratio).

    Since schema 1.4, ``fleet`` optionally holds the cross-process event
    collector's summary
    (:meth:`repro.obs.events.EventBus.fleet_summary`: per-cell terminal
    accounting, per-worker state, event counts, GAIL decompositions).

    Since schema 1.5, ``kind`` may also be ``"serve"`` (a query-serving
    session) and ``serve`` optionally holds the server's counter
    snapshot (:meth:`repro.serve.server.ServeStats.to_dict`).
    """

    graph: GraphMeta
    config: RunConfig
    kind: str = "measure"
    counters: CounterSummary | None = None
    time: TimeSummary | None = None
    instructions: float | None = None
    convergence: Convergence | None = None
    wall_spans: dict[str, dict[str, float]] = field(default_factory=dict)
    metrics: dict[str, Any] | None = None
    drift: dict[str, Any] | None = None
    resilience: dict[str, Any] | None = None
    plan: dict[str, Any] | None = None
    fleet: dict[str, Any] | None = None
    serve: dict[str, Any] | None = None
    schema_version: str = SCHEMA_VERSION

    def key(self) -> str:
        """Pairing key used when diffing report sets."""
        return f"{self.graph.name}/{self.config.method}"

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "graph": self.graph.to_dict(),
            "config": self.config.to_dict(),
            "counters": self.counters.to_dict() if self.counters else None,
            "time": self.time.to_dict() if self.time else None,
            "instructions": self.instructions,
            "convergence": self.convergence.to_dict() if self.convergence else None,
            "wall_spans": {
                path: dict(stats) for path, stats in self.wall_spans.items()
            },
            "metrics": self.metrics,
            "drift": self.drift,
            "resilience": self.resilience,
            "plan": self.plan,
            "fleet": self.fleet,
            "serve": self.serve,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        version = str(data.get("schema_version", ""))
        major = version.split(".", 1)[0]
        if major != SCHEMA_VERSION.split(".", 1)[0]:
            raise ValueError(
                f"unsupported report schema version {version!r} "
                f"(this build reads {SCHEMA_VERSION!r})"
            )
        counters = data.get("counters")
        time_data = data.get("time")
        convergence = data.get("convergence")
        return cls(
            schema_version=version,
            kind=data.get("kind", "measure"),
            graph=GraphMeta.from_dict(data["graph"]),
            config=RunConfig.from_dict(data["config"]),
            counters=CounterSummary.from_dict(counters) if counters else None,
            time=TimeSummary.from_dict(time_data) if time_data else None,
            instructions=(
                float(data["instructions"])
                if data.get("instructions") is not None
                else None
            ),
            convergence=Convergence.from_dict(convergence) if convergence else None,
            wall_spans={
                path: {k: float(v) if k == "seconds" else int(v) for k, v in stats.items()}
                for path, stats in data.get("wall_spans", {}).items()
            },
            # 1.0 reports predate these sections; absent means not collected.
            metrics=data.get("metrics"),
            drift=data.get("drift"),
            # 1.2 section; absent in older reports.
            resilience=data.get("resilience"),
            # 1.3 section; absent in older reports.
            plan=data.get("plan"),
            # 1.4 section; absent in older reports.
            fleet=data.get("fleet"),
            # 1.5 section; absent in older reports.
            serve=data.get("serve"),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path) as handle:
            return cls.from_json(handle.read())


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def counter_summary(counters, num_edges: int) -> CounterSummary:
    """Flatten a :class:`~repro.memsim.MemCounters` into report form.

    Stream keys become their string values; zero-valued entries are
    dropped so reports only list streams the kernel actually touched.
    """

    def by_stream(table) -> dict[str, int]:
        return {
            stream.value: int(count)
            for stream, count in sorted(table.items(), key=lambda kv: kv[0].value)
            if count
        }

    def by_phase(table) -> dict[str, int]:
        return {phase: int(count) for phase, count in sorted(table.items()) if count}

    return CounterSummary(
        reads_by_stream=by_stream(counters.reads),
        writes_by_stream=by_stream(counters.writes),
        reads_by_phase=by_phase(counters.phase_reads),
        writes_by_phase=by_phase(counters.phase_writes),
        total_reads=int(counters.total_reads),
        total_writes=int(counters.total_writes),
        total_requests=int(counters.total_requests),
        requests_per_edge=counters.requests_per_edge(num_edges)
        if num_edges > 0
        else 0.0,
    )


def report_from_measurement(
    measurement,
    *,
    scale: float | None = None,
    seed: int | None = None,
    engine: str = "stackdist",
    options: dict[str, Any] | None = None,
    wall_spans: dict[str, dict[str, float]] | None = None,
    metrics: dict[str, Any] | None = None,
    resilience: dict[str, Any] | None = None,
) -> RunReport:
    """Build a ``kind="measure"`` report from a harness ``Measurement``.

    ``metrics`` takes an already-serialized registry snapshot
    (``MetricsRegistry.as_dict()``); the drift section is read off the
    measurement itself (``measurement.drift``, a ``DriftSummary`` or
    ``None``) since the harness computes it alongside the counters.
    """
    time = measurement.time
    drift = getattr(measurement, "drift", None)
    return RunReport(
        kind="measure",
        graph=GraphMeta(
            name=measurement.graph_name,
            num_vertices=measurement.num_vertices,
            num_edges=measurement.num_edges,
            scale=scale,
            seed=seed,
        ),
        config=RunConfig(
            method=measurement.method,
            engine=engine,
            num_iterations=measurement.num_iterations,
            options=dict(options or {}),
        ),
        counters=counter_summary(measurement.counters, measurement.num_edges),
        time=TimeSummary(
            modelled_seconds=time.total,
            memory_bound_seconds=time.memory_bound,
            instruction_bound_seconds=time.instruction_bound,
            bottleneck=time.bottleneck,
            phase_seconds=dict(measurement.phase_seconds)
            if measurement.phase_seconds is not None
            else None,
        ),
        instructions=float(measurement.instructions),
        wall_spans=dict(wall_spans or {}),
        metrics=metrics,
        drift=drift.to_dict() if drift is not None else None,
        resilience=resilience,
    )


# ----------------------------------------------------------------------
# report files: one report or a set (``repro-pb compare --json``)
# ----------------------------------------------------------------------
def save_reports(reports: list[RunReport], path: str) -> None:
    """Write one report plainly, several as a ``report_set`` document."""
    if len(reports) == 1:
        reports[0].save(path)
        return
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "report_set",
        "reports": [report.to_dict() for report in reports],
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_reports(path: str) -> list[RunReport]:
    """Read a report file: a single report or a ``report_set``."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("kind") == "report_set":
        return [RunReport.from_dict(entry) for entry in data["reports"]]
    return [RunReport.from_dict(data)]
