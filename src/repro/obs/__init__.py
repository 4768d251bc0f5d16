"""Observability layer: spans, schema-versioned run reports, regression diffs.

The reproduction's counterpart to the paper's measurement apparatus
(Section VI): where :mod:`repro.memsim` stands in for the PCM hardware
counters, :mod:`repro.obs` is the *recording* substrate around them —

* :mod:`repro.obs.spans` — nestable, thread-safe wall-clock spans with
  near-zero overhead when disabled, wired into the kernels, the cache
  simulator, and the experiment harness;
* :mod:`repro.obs.trace` — opt-in event backend for the span API: every
  completed span becomes a timestamped duration event, instrumented code
  publishes counter samples (DRAM transfers, miss rate, residual, drift),
  and the whole timeline exports as Chrome-trace/Perfetto JSON
  (``--trace out.json``);
* :mod:`repro.obs.events` — the fleet flight recorder: schema-versioned
  lifecycle events and resource samples emitted by sweep worker
  processes over their coordinator connections, collected parent-side
  into a merged per-worker Chrome trace, the report's ``fleet`` section,
  and a live progress feed;
* :mod:`repro.obs.progress` — renderer over the event stream (live
  TTY line / plain CI lines / off) behind ``reproduce``/``plan``;
* :mod:`repro.obs.metrics` — histogram/time-series registry that memsim
  and the kernels publish distributions into (reuse distances, bin
  occupancy, per-iteration miss rate), serialized into reports;
* :mod:`repro.obs.drift` — records of the Section V analytic model
  evaluated against the simulation, with a threshold gate
  (``repro-pb report --drift``);
* :mod:`repro.obs.log` — the ``repro`` stdlib-logging hierarchy behind
  the CLI's ``-v``/``-q`` flags;
* :mod:`repro.obs.report` — :class:`RunReport`, the schema-versioned JSON
  record of one run (graph, config, per-stream/per-phase DRAM counters,
  modelled + wall time, convergence history, metrics, drift),
  round-trippable and documented field by field in
  ``docs/metrics_schema.md``;
* :mod:`repro.obs.diff` — report comparison with a relative-threshold
  regression gate, exposed as ``repro-pb report``.

This package deliberately imports nothing from the rest of :mod:`repro`
(report builders take measurements duck-typed), so any layer — kernels,
memsim, harness — can instrument itself without import cycles.
"""

from repro.obs.spans import (
    PATH_SEPARATOR,
    SpanRecorder,
    SpanStats,
    current_recorder,
    disable,
    enable,
    is_enabled,
    recording,
    span,
)
from repro.obs.trace import (
    TraceRecorder,
    counter_sample,
    current_tracer,
    tracing,
)
from repro.obs.events import (
    EVENTS_SCHEMA_VERSION,
    Event,
    EventBus,
    current_bus,
)
from repro.obs.events import collecting as collecting_events
from repro.obs.events import emit as emit_event
from repro.obs.progress import ProgressRenderer, attach_progress
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    Series,
    collecting,
    current_registry,
)
from repro.obs.drift import (
    DEFAULT_DRIFT_THRESHOLD,
    DriftRecord,
    DriftSummary,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.report import (
    SCHEMA_VERSION,
    Convergence,
    CounterSummary,
    GraphMeta,
    RunConfig,
    RunReport,
    TimeSummary,
    counter_summary,
    load_reports,
    report_from_measurement,
    save_reports,
)
from repro.obs.diff import (
    DEFAULT_THRESHOLD,
    MetricDelta,
    ReportDiff,
    diff_report_sets,
    diff_reports,
)

__all__ = [
    "PATH_SEPARATOR",
    "SpanRecorder",
    "SpanStats",
    "current_recorder",
    "disable",
    "enable",
    "is_enabled",
    "recording",
    "span",
    "TraceRecorder",
    "counter_sample",
    "current_tracer",
    "tracing",
    "EVENTS_SCHEMA_VERSION",
    "Event",
    "EventBus",
    "current_bus",
    "collecting_events",
    "emit_event",
    "ProgressRenderer",
    "attach_progress",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "collecting",
    "current_registry",
    "DEFAULT_DRIFT_THRESHOLD",
    "DriftRecord",
    "DriftSummary",
    "configure_logging",
    "get_logger",
    "SCHEMA_VERSION",
    "Convergence",
    "CounterSummary",
    "GraphMeta",
    "RunConfig",
    "RunReport",
    "TimeSummary",
    "counter_summary",
    "load_reports",
    "report_from_measurement",
    "save_reports",
    "DEFAULT_THRESHOLD",
    "MetricDelta",
    "ReportDiff",
    "diff_report_sets",
    "diff_reports",
]
