"""One-command reproduction driver: ``python -m repro.harness.reproduce``.

Regenerates every table and figure of the paper — the same artifacts the
benchmark suite produces — without pytest, writing each rendered result to
an output directory and printing progress.  Useful for CI artifact jobs
and for quickly rebuilding ``results/`` after a change.

Since the plan layer (:mod:`repro.plan`), the requested artifacts are
compiled into **one deduplicated cell plan** executed in a single
resilient sweep: cells shared between artifacts (the suite measurements
behind figures 3-6 and tables II-III, the bin-width sweep behind figures
9-10) are simulated exactly once, and ``--cache DIR`` warm-starts from a
content-addressed store so a repeated run executes nothing at all.

Options::

    --scale 0.25        shrink the suite (default 1.0, the full scaled suite)
    --output results    output directory
    --only fig3 table2  regenerate a subset
    --quick             alias for --scale 0.25 with coarser sweeps
    --cache DIR         content-addressed measurement cache: completed
                        cells are stored by fingerprint as they finish
                        and any later run (any artifact subset) reuses
                        them, so rerunning after a crash resumes where
                        it stopped; outputs are byte-identical either way
    --workers N         run the plan's cells on N local worker processes
                        leased by a coordinator (1 = serial in-process,
                        0 = one per CPU)
    --max-retries N     retry failed sweep cells N times (default 2)
    --cell-timeout S    per-cell wall-clock deadline, --workers >= 2 only
    --inject-faults P   deterministic fault plan (test hook), e.g.
                        "seed=7,rate=0.3,kinds=crash|timeout|corrupt"
    --bind HOST:PORT    with --workers >= 2: coordinator listen address
                        (default 127.0.0.1:0; a fixed port lets external
                        `repro-pb worker --connect` processes join)
    --lease-timeout S   with --workers >= 2: silent-worker lease expiry
                        (expired cells are charged a timeout and
                        re-leased; default 30)
    --report PATH       write a schema-versioned RunReport of the run
                        (wall spans + plan dedup/cache + retry counters
                        + the fleet section's cross-process accounting)
    --trace PATH        write one merged Chrome trace of the whole fleet:
                        parent spans plus every worker's cell spans,
                        lifecycle events, and resource counter tracks
    --progress MODE     live progress rendering: auto (default; live on
                        a TTY, plain lines otherwise), live, plain, off

Artifact ids: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9
fig10 fig11.  A run interrupted by a crash or a permanently failing cell
exits nonzero naming the cell; rerunning the same command with the same
``--cache`` directory picks up where it stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from repro.graphs import load_graph, load_suite
from repro.harness.cache import MeasurementCache
from repro.harness.figures import (
    figure3_spec,
    figure4_spec,
    figure5_spec,
    figure6_spec,
    figure7_spec,
    figure8_spec,
    figure9_spec,
    figure10_spec,
    figure11_spec,
)
from repro.harness.tables import table1_spec, table2_spec, table3_spec
from repro.cluster.wire import endpoint_argument
from repro.memsim import DEFAULT_ENGINE, ENGINES
from repro.obs.events import EventBus
from repro.obs.events import collecting as collecting_events
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.progress import attach_progress
from repro.obs.report import GraphMeta, RunConfig, RunReport
from repro.obs.spans import recording
from repro.obs.trace import TraceRecorder, tracing
from repro.parallel.faults import FaultPlan
from repro.parallel.resilience import (
    CellFailedError,
    RetryPolicy,
    SweepOptions,
    SweepStats,
)
from repro.plan import CompiledPlan, compile_plan, execute_plan

log = get_logger("harness.reproduce")

ARTIFACTS = (
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
)

#: Output file stem (under ``--output``) for each artifact id.
EMIT_NAMES = {
    "table1": "table1_suite",
    "table2": "table2_priorwork",
    "table3": "table3_detailed",
    "fig3": "fig3_vertex_traffic",
    "fig4": "fig4_speedup",
    "fig5": "fig5_comm_reduction",
    "fig6": "fig6_gail",
    "fig7": "fig7_scale_vertices",
    "fig8": "fig8_scale_degree",
    "fig9": "fig9_binwidth_comm",
    "fig10": "fig10_binwidth_time",
    "fig11": "fig11_phase_breakdown",
}

#: Bin widths of the figure 9/10/11 sweeps (see benchmarks/conftest.py).
BIN_WIDTHS = [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536, 262144]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.reproduce",
        description="Regenerate every table and figure of the paper.",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", default="results")
    parser.add_argument("--only", nargs="*", choices=ARTIFACTS, default=None)
    parser.add_argument(
        "--quick", action="store_true", help="quarter-scale suite, coarser sweeps"
    )
    parser.add_argument(
        "--engine",
        choices=tuple(ENGINES),
        default=DEFAULT_ENGINE,
        help="cache engine for every simulation "
        f"(default: {DEFAULT_ENGINE}; 'flru' is the per-access oracle)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the plan's cells, leased by a local "
        "coordinator (1 = serial in-process, 0 = one per CPU); outputs "
        "are identical either way",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed measurement cache: store every completed "
        "cell under its fingerprint in DIR as it finishes and reuse "
        "matching cells from any previous run, so a rerun after a crash "
        "picks up where it stopped (a fully warm run executes zero cells; "
        "outputs are byte-identical either way)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per failed sweep cell before the run aborts "
        "(default 2; backoff is deterministic and jitterless)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock deadline (enforced with --workers >= 2; "
        "an overrun cell's worker is replaced and the cell retried)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="PLAN",
        default=None,
        help="deterministic fault plan for chaos testing, e.g. "
        '"seed=7,rate=0.3,kinds=crash|timeout|corrupt,max=2" '
        "(also honoured from the REPRO_FAULT_PLAN environment variable)",
    )
    parser.add_argument(
        "--bind",
        metavar="HOST:PORT",
        type=endpoint_argument,
        default="127.0.0.1:0",
        help="with --workers >= 2: coordinator listen address (default "
        "127.0.0.1:0 — loopback, ephemeral port; a fixed port lets "
        "external `repro-pb worker --connect` processes join; see "
        "docs/distributed.md before binding wider)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="with --workers >= 2: how long a silent worker may hold a "
        "cell before its lease expires and the cell is re-leased "
        "(default 30)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a RunReport (docs/metrics_schema.md) of this "
        "reproduction run: wall spans plus plan/cache and retry counters "
        "and the fleet section's cross-process cell accounting",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write one merged Chrome trace (chrome://tracing / Perfetto) "
        "of the whole fleet: parent spans plus per-worker tracks with "
        "worker-side cell spans, lifecycle events, and resource counters",
    )
    parser.add_argument(
        "--progress",
        choices=("auto", "live", "plain", "off"),
        default="auto",
        help="progress rendering: auto picks an in-place live line on a "
        "TTY and plain append-only lines otherwise (never ANSI escapes "
        "in redirected output); -q implies off",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more logging (-v progress, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0, help="errors only"
    )
    return parser


def _sizes_for(scale: float) -> list[int]:
    """Figure 7 vertex sweep, shrunk proportionally for quick runs."""
    full = [4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288]
    if scale >= 1.0:
        return full
    return [max(1024, int(n * scale)) for n in full]


def plan_specs(
    wanted: set[str],
    *,
    scale: float = 1.0,
    seed: int = 42,
    engine: str = DEFAULT_ENGINE,
) -> list:
    """Experiment specs for the requested artifact ids, in emit order.

    This is the full declarative description of the reproduction: the
    driver compiles these specs into one deduplicated plan, and the
    ``repro-pb plan`` subcommand compiles them purely to print the DAG.
    """
    specs = []
    suite_needed = wanted & {
        "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6"
    }
    graphs = load_suite(seed=seed, scale=scale) if suite_needed else {}
    if "table1" in wanted:
        specs.append(table1_spec(graphs))
    if "table2" in wanted:
        specs.append(table2_spec(graphs["urand"], engine=engine))
    if "table3" in wanted:
        specs.append(table3_spec(graphs, engine=engine))
    if "fig3" in wanted:
        specs.append(figure3_spec(graphs, engine=engine))
    if "fig4" in wanted:
        specs.append(figure4_spec(graphs, engine=engine))
    if "fig5" in wanted:
        specs.append(figure5_spec(graphs, engine=engine))
    if "fig6" in wanted:
        specs.append(figure6_spec(graphs, engine=engine))
    if "fig7" in wanted:
        specs.append(figure7_spec(_sizes_for(scale), engine=engine))
    if "fig8" in wanted:
        degrees = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48]
        n = max(2048, int(65536 * scale)) if scale < 1.0 else 65536
        specs.append(figure8_spec(degrees, num_vertices=n, engine=engine))
    if wanted & {"fig9", "fig10"}:
        sweep_graphs = load_suite(seed=seed, scale=0.5 * scale)
        if "fig9" in wanted:
            specs.append(figure9_spec(sweep_graphs, BIN_WIDTHS, engine=engine))
        if "fig10" in wanted:
            specs.append(figure10_spec(sweep_graphs, BIN_WIDTHS, engine=engine))
    if "fig11" in wanted:
        urand = graphs.get("urand") or load_graph("urand", seed=seed, scale=scale)
        specs.append(figure11_spec(urand, BIN_WIDTHS, engine=engine))
    return specs


def _sweep_options(args: argparse.Namespace) -> SweepOptions:
    """Resilience settings for the plan execution of this run."""
    fault_plan = (
        FaultPlan.from_string(args.inject_faults) if args.inject_faults else None
    )
    return SweepOptions(
        policy=RetryPolicy(
            max_retries=args.max_retries, cell_timeout=args.cell_timeout
        ),
        fault_plan=fault_plan,
        stats=SweepStats(),
        bind=args.bind,
        lease_seconds=args.lease_timeout,
    )


def _write_run_report(
    args: argparse.Namespace,
    scale: float,
    wanted: set[str],
    options: SweepOptions,
    plan: CompiledPlan | None,
    wall_spans: dict,
    *,
    completed: bool,
    fleet: dict | None = None,
) -> None:
    """Honour ``--report``: one run-level RunReport with plan + resilience."""
    if not args.report:
        return
    report = RunReport(
        kind="reproduce",
        graph=GraphMeta(
            name="reproduce", num_vertices=0, num_edges=0, scale=scale, seed=args.seed
        ),
        config=RunConfig(
            method="reproduce",
            engine=args.engine,
            options={
                "artifacts": sorted(wanted),
                "workers": args.workers,
                "cache": args.cache,
                "max_retries": args.max_retries,
                "cell_timeout": args.cell_timeout,
                "fault_plan": args.inject_faults,
                "completed": completed,
            },
        ),
        wall_spans=wall_spans,
        plan=plan.stats.as_dict() if plan is not None else None,
        resilience=options.stats.as_dict() if options.stats else None,
        fleet=fleet,
    )
    report.save(args.report)
    log.info("wrote run report %s", args.report)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The reproduction driver's whole job is progress + artifacts, so its
    # default verbosity is INFO; -q silences it for scripted use.
    configure_logging(args.verbose - args.quiet + 1)
    scale = 0.25 if args.quick else args.scale
    os.makedirs(args.output, exist_ok=True)
    wanted = set(args.only or ARTIFACTS)
    options = _sweep_options(args)
    log.info("regenerating %d artifact(s) at scale %g", len(wanted), scale)

    def emit(name: str, text: str) -> None:
        path = os.path.join(args.output, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        log.info("wrote %s", path)

    holder: dict = {"plan": None}
    bus = EventBus()
    tracer = TraceRecorder() if args.trace else None
    renderer = attach_progress(bus, mode=args.progress, quiet=args.quiet > 0)
    failure: CellFailedError | None = None
    with recording() as rec, collecting_events(bus):
        trace_scope = tracing(tracer) if tracer is not None else contextlib.nullcontext()
        with trace_scope:
            try:
                _generate(args, scale, wanted, options, emit, holder)
            except CellFailedError as exc:
                failure = exc
                log.error("%s", exc)
                if args.cache:
                    log.error(
                        "completed cells are cached under %s; rerun the "
                        "same command to resume",
                        args.cache,
                    )
                else:
                    log.error(
                        "rerun with --cache DIR to make progress durable "
                        "across failures"
                    )
    if renderer is not None:
        renderer.finish()
    fleet = bus.fleet_summary()
    if tracer is not None:
        bus.merge_into_trace(tracer)
        tracer.save(args.trace)
        log.info("wrote fleet trace %s", args.trace)
    _write_run_report(
        args, scale, wanted, options, holder["plan"], rec.as_dict(),
        completed=failure is None, fleet=fleet,
    )
    if failure is not None:
        return 1
    log.info("done.")
    return 0


def _generate(
    args: argparse.Namespace,
    scale: float,
    wanted: set[str],
    options: SweepOptions,
    emit,
    holder: dict,
) -> None:
    """Compile one plan for every wanted artifact, execute it, fan out."""
    specs = plan_specs(wanted, scale=scale, seed=args.seed, engine=args.engine)
    plan = compile_plan(specs)
    holder["plan"] = plan
    log.info(
        "plan: %d cell(s) requested, %d unique (dedup ratio %.2f)",
        plan.cells_requested,
        plan.cells_unique,
        plan.dedup_ratio,
    )
    cache = MeasurementCache(args.cache) if args.cache else None
    results = execute_plan(plan, workers=args.workers, options=options, cache=cache)
    if cache is not None:
        log.info(
            "cache: %d hit(s), %d cell(s) executed",
            plan.stats.cache_hits,
            plan.stats.executed,
        )
    for spec in specs:
        emit(EMIT_NAMES[spec.name], results.artifact(spec.name).render())


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
