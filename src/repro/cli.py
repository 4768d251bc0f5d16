"""Command-line interface: ``repro-pb``.

A thin front end over the library for the common workflows:

* ``repro-pb suite`` — regenerate Table I (the scaled graph suite);
* ``repro-pb pagerank --graph urand --method auto`` — compute PageRank;
* ``repro-pb measure --graph urand --method dpb`` — simulate one
  iteration's DRAM traffic and modelled time;
* ``repro-pb compare --graph urand`` — all four strategies side by side;
* ``repro-pb model --vertices 131072 --degree 16`` — query the Section V
  analytic models for a planned workload;
* ``repro-pb report before.json after.json`` — diff two run reports and
  flag traffic/time regressions;
* ``repro-pb report --drift run.json`` — check the embedded
  model-vs-simulation drift records against a threshold;
* ``repro-pb report --summary run.json`` — print the GAIL per-edge
  decomposition (requests / reads / writes / instructions / seconds per
  edge) of every measurement carrying simulated counters;
* ``repro-pb bench --check`` — the bench-regression sentinel: compare
  fresh benchmark numbers against the committed ``BENCH_*.json``
  baselines with noise tolerances and exit nonzero on regression;
* ``repro-pb plan`` — compile the reproduction's experiment specs into
  their deduplicated cell DAG and print it (cell counts per artifact,
  dedup ratio, cache hits) without executing anything;
* ``repro-pb serve --seeds 0,5 --seeds 17`` — answer personalized-
  PageRank queries through the batched query layer
  (:mod:`repro.serve`: request coalescing + content-addressed result
  cache);
* ``repro-pb loadgen --queries 200 --max-batch 16`` — replay a seeded
  query stream against the serve layer and report p50/p99 latency,
  throughput, and the warm-cache hit rate;
* ``repro-pb reproduce --cache cache/`` — regenerate every table and
  figure as one deduplicated plan with fault-tolerant, cacheable sweeps;
  rerunning against the same cache resumes an interrupted run
  (forwards to :mod:`repro.harness.reproduce`);
* ``repro-pb worker --connect HOST:PORT`` — join a pooled run
  (``plan --execute`` or ``reproduce`` with ``--workers >= 2`` and a
  fixed ``--bind`` port) as an extra worker: lease cells from the
  coordinator, write results into the shared measurement cache
  (:mod:`repro.cluster`, ``docs/distributed.md``).

Every subcommand prints an aligned text table to stdout; ``measure``,
``pagerank`` and ``compare`` additionally emit machine-readable
schema-versioned JSON run reports via ``--json`` / ``--report-dir``
(schema: ``docs/metrics_schema.md``), a Chrome-trace/Perfetto event
timeline via ``--trace out.json``, and (``measure``/``compare``)
histogram/series metrics in the report via ``--metrics``.  ``-v``/``-q``
control logging on every subcommand.  The CLI only *reads* graphs it
generates itself (deterministic under ``--seed``), so it is safe to run
anywhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack

import numpy as np

from repro.graphs import SUITE_NAMES, load_graph, load_suite
from repro.graphs.partition import choose_block_width, num_blocks_for_width
from repro.harness import run_experiment, table1
from repro.kernels import KERNELS, pagerank
from repro.memsim import DEFAULT_ENGINE, ENGINES
from repro.models import (
    ModelParams,
    SIMULATED_MACHINE,
    paper_cb_edgelist_reads,
    paper_pb_reads,
    paper_pb_writes,
    paper_pull_reads,
)
from repro.obs import (
    DEFAULT_DRIFT_THRESHOLD,
    Convergence,
    DriftSummary,
    GraphMeta,
    RunConfig,
    RunReport,
    collecting,
    configure_logging,
    diff_report_sets,
    load_reports,
    recording,
    report_from_measurement,
    save_reports,
    tracing,
)
from repro.utils import format_table

__all__ = ["main", "build_parser"]

ENGINE_NAMES = tuple(ENGINES)


def _package_version() -> str:
    """Version string for ``--version``: installed distribution metadata,
    falling back to the source tree's ``pyproject.toml`` (the usual case
    when running uninstalled via ``PYTHONPATH=src``)."""
    import importlib.metadata

    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        pass
    import re

    pyproject = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "pyproject.toml",
    )
    try:
        with open(pyproject, encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return "unknown"
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    return f"{match.group(1)}+src" if match else "unknown"


def _logging_parent() -> argparse.ArgumentParser:
    """``-v``/``-q`` — shared by every subcommand."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more logging (-v progress, -vv debug)",
    )
    p.add_argument("-q", "--quiet", action="count", default=0, help="errors only")
    return p


def _graph_parent() -> argparse.ArgumentParser:
    """``--graph``/``--scale``/``--seed`` — one deterministic suite graph."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--graph", choices=SUITE_NAMES, default="urand")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=42)
    return p


def _engine_parent() -> argparse.ArgumentParser:
    """``--engine`` — the memory-simulation engine."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=DEFAULT_ENGINE,
        help="cache engine for simulated traffic "
        f"(default: {DEFAULT_ENGINE}; 'flru' is the per-access oracle)",
    )
    return p


def _tier_parent() -> argparse.ArgumentParser:
    """``--kernel-tier`` — oracle vs compiled kernel implementations."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--kernel-tier",
        # Literal choices keep repro.compiled un-imported until requested;
        # kept in sync with repro.compiled.kernels.KERNEL_TIERS by
        # tests/compiled/test_cli_tier.py.
        choices=("numpy", "compiled"),
        default="numpy",
        help="kernel implementation tier (default: numpy, the differential "
        "oracles); 'compiled' runs pb/dpb through the compiled tier — "
        "bit-identical results, see docs/performance.md",
    )
    return p


def _report_parent() -> argparse.ArgumentParser:
    """``--json``/``--report-dir``/``--trace`` — machine-readable outputs."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--json",
        metavar="PATH",
        help="write a machine-readable run report (docs/metrics_schema.md)",
    )
    p.add_argument(
        "--report-dir",
        metavar="DIR",
        help="write one report file per run into DIR",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="record a Chrome-trace/Perfetto event timeline to PATH",
    )
    return p


def _metrics_parent() -> argparse.ArgumentParser:
    """``--metrics`` — histogram/series collection into the report."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--metrics",
        action="store_true",
        help="collect histogram/series metrics into the report "
        "(reuse distance, bin occupancy, per-iteration miss rate)",
    )
    return p


def _serve_parent() -> argparse.ArgumentParser:
    """Serve-layer knobs shared by ``serve`` and ``loadgen``."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--method",
        choices=("pull", "dpb"),
        default="dpb",
        help="personalized-PageRank propagation strategy (default: dpb)",
    )
    p.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="how long the first request of a batch waits for company "
        "(default: 0.002)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="maximum queries coalesced into one multi-source kernel run "
        "(default: 16)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed result cache directory (default: no cache)",
    )
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument(
        "--top", type=int, default=5, help="top-k vertices per answer"
    )
    return p


def _fleet_parent() -> argparse.ArgumentParser:
    """``--bind``/``--lease-timeout`` — the coordinator of pooled runs."""
    from repro.cluster.wire import endpoint_argument

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--bind",
        metavar="HOST:PORT",
        type=endpoint_argument,
        default="127.0.0.1:0",
        help="with --workers >= 2: coordinator listen address (default "
        "127.0.0.1:0 — loopback, ephemeral port; a fixed port lets "
        "external `repro-pb worker --connect` processes join; bind wider "
        "only on a network that shares the cache filesystem, see "
        "docs/distributed.md)",
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="with --workers >= 2: how long a silent worker may hold a "
        "cell before the lease expires and the cell is re-leased "
        "(default 30)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-pb",
        description=(
            "Propagation-blocking PageRank reproduction "
            "(Beamer, Asanović, Patterson — IPDPS 2017)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    # Option groups shared across subcommands are argparse *parents*:
    # declared once, inherited by every subcommand that needs them
    # (``repro-pb measure -v --graph web --engine flru --json r.json``).
    common = _logging_parent()
    graph = _graph_parent()
    engine = _engine_parent()
    tier = _tier_parent()
    report = _report_parent()
    metrics = _metrics_parent()
    serve = _serve_parent()
    fleet = _fleet_parent()

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, *parents, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    p_suite = add_parser("suite", help="regenerate the Table I graph suite")
    p_suite.add_argument("--scale", type=float, default=1.0)
    p_suite.add_argument("--seed", type=int, default=42)

    p_pr = add_parser(
        "pagerank",
        graph,
        engine,
        tier,
        report,
        help="compute PageRank on a suite graph",
    )
    p_pr.add_argument(
        "--method",
        "--strategy",
        choices=[*sorted(KERNELS), "auto"],
        default="auto",
    )
    p_pr.add_argument("--tolerance", type=float, default=1e-6)
    p_pr.add_argument("--max-iterations", type=int, default=100)
    p_pr.add_argument("--top", type=int, default=5, help="print the top-N vertices")
    p_pr.add_argument(
        "--measure",
        action="store_true",
        help="also simulate one iteration's DRAM traffic on --engine "
        "after the solve",
    )

    p_measure = add_parser(
        "measure",
        graph,
        engine,
        tier,
        report,
        metrics,
        help="simulate one iteration's memory traffic",
    )
    p_measure.add_argument(
        "--method", "--strategy", choices=sorted(KERNELS), default="dpb"
    )
    p_measure.add_argument("--iterations", type=int, default=1)

    p_compare = add_parser(
        "compare",
        graph,
        engine,
        tier,
        report,
        metrics,
        help="all strategies on one graph",
    )

    p_model = add_parser("model", help="query the Section V analytic models")
    p_model.add_argument("--vertices", type=int, required=True)
    p_model.add_argument("--degree", type=float, required=True)

    p_describe = add_parser(
        "describe", graph, help="characterize a graph and recommend a strategy"
    )

    from repro.harness.reproduce import ARTIFACTS

    p_plan = add_parser(
        "plan",
        engine,
        fleet,
        help="compile the reproduction's cell DAG and print it "
        "(no simulation runs)",
    )
    p_plan.add_argument("--scale", type=float, default=1.0)
    p_plan.add_argument("--seed", type=int, default=42)
    p_plan.add_argument(
        "--only",
        nargs="*",
        choices=ARTIFACTS,
        default=None,
        help="compile a subset of artifact ids (default: all of them)",
    )
    p_plan.add_argument(
        "--quick", action="store_true", help="quarter-scale suite, like reproduce"
    )
    p_plan.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="also count how many cells an existing measurement cache "
        "directory would satisfy (with --execute: warm this cache)",
    )
    p_plan.add_argument(
        "--execute",
        action="store_true",
        help="execute the compiled plan's cells (typically with --cache "
        "to warm it) with live fleet progress instead of only printing "
        "the DAG",
    )
    p_plan.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --execute, leased by a local "
        "coordinator (1 = serial, 0 = one per usable CPU)",
    )
    p_plan.add_argument(
        "--trace",
        metavar="PATH",
        help="with --execute: write the merged fleet Chrome trace "
        "(per-worker tracks) to PATH",
    )
    p_plan.add_argument(
        "--progress",
        choices=("auto", "live", "plain", "off"),
        default="auto",
        help="with --execute: progress rendering (auto = live on a TTY, "
        "plain lines otherwise; -q implies off)",
    )

    p_worker = add_parser(
        "worker",
        help="join a pooled plan run as an extra worker (dial the "
        "coordinator a --workers >= 2 run is listening on)",
    )
    p_worker.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="coordinator address, as fixed with the pooled run's --bind",
    )
    p_worker.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="override the coordinator's advertised shared cache "
        "directory (needed when the shared filesystem mounts at a "
        "different path on this host)",
    )
    p_worker.add_argument(
        "--name",
        default=None,
        help="worker name in fleet telemetry (default: pid<PID>)",
    )

    p_serve = add_parser(
        "serve",
        graph,
        tier,
        serve,
        help="answer personalized-PageRank queries through the batched "
        "query layer (coalescing + result cache)",
    )
    p_serve.add_argument(
        "--seeds",
        action="append",
        metavar="IDS",
        default=None,
        help="one query as comma-separated seed vertex ids (repeatable, "
        "e.g. --seeds 0,5 --seeds 17); default: 8 generated queries",
    )
    p_serve.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a kind='serve' run report with the server's counter "
        "snapshot (docs/metrics_schema.md)",
    )

    p_loadgen = add_parser(
        "loadgen",
        graph,
        tier,
        serve,
        help="replay a seeded query stream against the serve layer and "
        "report the latency/throughput distribution",
    )
    p_loadgen.add_argument(
        "--queries", type=int, default=64, help="number of queries to replay"
    )
    p_loadgen.add_argument(
        "--repeat-fraction",
        type=float,
        default=0.5,
        help="fraction of queries re-issuing an earlier seed set "
        "(drives the warm-cache hit rate; default 0.5)",
    )
    p_loadgen.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="closed-loop client concurrency (default 8)",
    )
    p_loadgen.add_argument(
        "--p99-bound",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit nonzero when p99 latency exceeds this bound "
        "(the CI serve-smoke gate)",
    )
    p_loadgen.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the load report (latencies, throughput, hit rate) "
        "as JSON",
    )

    p_report = add_parser(
        "report",
        help="diff run-report files and flag regressions or model drift",
    )
    p_report.add_argument(
        "reports",
        nargs="+",
        metavar="REPORT",
        help="report files: before and after for a diff, any number "
        "with --drift",
    )
    p_report.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative growth on any metric that counts as a regression "
        "(default 0.05 = 5%%)",
    )
    p_report.add_argument(
        "--drift",
        action="store_true",
        help="check embedded model-vs-simulation drift records instead of "
        "diffing two runs",
    )
    p_report.add_argument(
        "--drift-threshold",
        type=float,
        default=DEFAULT_DRIFT_THRESHOLD,
        help="relative model/simulation divergence that counts as drift "
        f"(default {DEFAULT_DRIFT_THRESHOLD:g})",
    )
    p_report.add_argument(
        "--summary",
        action="store_true",
        help="print the GAIL per-edge decomposition (requests / reads / "
        "writes / instructions / seconds per edge) of every measurement "
        "report instead of diffing two runs; reproduce reports list the "
        "fleet's per-cell decompositions",
    )

    p_bench = add_parser(
        "bench",
        help="compare fresh BENCH_*.json numbers against committed "
        "baselines with noise tolerances (--check exits nonzero on "
        "regression)",
    )
    p_bench.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when any gated metric regresses beyond its "
        "tolerance (the CI bench-sentinel gate)",
    )
    p_bench.add_argument(
        "--baseline-dir",
        metavar="DIR",
        default=None,
        help="directory holding committed BENCH_*.json baselines "
        "(default: the repository root)",
    )
    p_bench.add_argument(
        "--current",
        metavar="DIR",
        default=None,
        help="directory of freshly emitted BENCH_*.json documents to "
        "compare (default: re-measure the cheap plan-dedup bench "
        "in-process)",
    )
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="default relative tolerance on gated metrics (default 0.01)",
    )
    p_bench.add_argument(
        "--noise",
        action="append",
        metavar="PATTERN=TOL",
        default=[],
        help="per-metric tolerance override, fnmatch pattern on "
        "'bench/metric' (repeatable), e.g. --noise 'plan_dedup/cells*=0'",
    )
    p_bench.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full comparison document to PATH (the CI "
        "artifact)",
    )

    # ``reproduce`` owns its full option surface in
    # repro.harness.reproduce; forward everything verbatim rather than
    # duplicating the argument list here.  No ``parents=[common]``: the
    # forwarded parser defines its own -v/-q.
    p_reproduce = sub.add_parser(
        "reproduce",
        help="regenerate every table and figure (supports --cache, "
        "--max-retries, --inject-faults; see --help)",
        add_help=False,
    )
    p_reproduce.add_argument("reproduce_args", nargs=argparse.REMAINDER)

    return parser


def _resolve_tier(method: str, tier: str) -> str:
    """Map ``method`` through ``--kernel-tier`` (lazy: tier 'numpy' never
    imports repro.compiled)."""
    if tier == "numpy":
        return method
    from repro.compiled.kernels import resolve_method

    return resolve_method(method, tier)


def _warmup_if_compiled(args: argparse.Namespace) -> None:
    """Front-load backend compilation when the compiled kernel tier is in play.

    Called inside the ``recording()`` scope so the
    ``compiled_warmup[<backend>]`` span lands in the report's wall spans
    instead of inflating the first measured iteration.  (The default
    cache engine builds the backend in the same span on first use.)
    """
    if getattr(args, "kernel_tier", "numpy") == "compiled":
        from repro.compiled import warmup

        warmup()


def _save_trace(args: argparse.Namespace, tracer) -> None:
    """Honour ``--trace`` for the run(s) just performed."""
    if tracer is not None:
        tracer.save(args.trace)
        print(f"[trace written to {args.trace}]")


def _write_reports(args: argparse.Namespace, reports: list[RunReport]) -> None:
    """Honour ``--json`` / ``--report-dir`` for the run(s) just performed."""
    if args.json:
        save_reports(reports, args.json)
        print(f"\n[report written to {args.json}]")
    if args.report_dir:
        os.makedirs(args.report_dir, exist_ok=True)
        for report in reports:
            name = f"{report.kind}_{report.graph.name}_{report.config.method}.json"
            path = os.path.join(args.report_dir, name)
            report.save(path)
            print(f"[report written to {path}]")


def _cmd_suite(args: argparse.Namespace) -> int:
    graphs = load_suite(scale=args.scale, seed=args.seed)
    print(table1(graphs).render())
    return 0


def _cmd_pagerank(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, scale=args.scale, seed=args.seed)
    with ExitStack() as stack:
        rec = stack.enter_context(recording())
        tracer = stack.enter_context(tracing()) if args.trace else None
        _warmup_if_compiled(args)
        result = pagerank(
            graph,
            method=args.method,
            tolerance=args.tolerance,
            max_iterations=args.max_iterations,
            tier=args.kernel_tier,
        )
        measurement = None
        if args.measure:
            measurement = run_experiment(
                graph, result.method, graph_name=args.graph, engine=args.engine
            )
    status = "converged" if result.converged else "iteration cap reached"
    print(
        f"{args.graph}: n={graph.num_vertices} m={graph.num_edges} "
        f"method={result.method} iterations={result.iterations} ({status})"
    )
    top = np.argsort(result.scores)[::-1][: max(args.top, 0)]
    rows = [[int(v), float(result.scores[v])] for v in top]
    print(format_table(["vertex", "score"], rows, title=f"top {len(rows)} vertices"))
    if measurement is not None:
        print(
            format_table(
                ["metric", "value"],
                [
                    ["DRAM reads (lines)", measurement.reads],
                    ["DRAM writes (lines)", measurement.writes],
                    [
                        "requests / edge",
                        round(measurement.gail().requests_per_edge, 4),
                    ],
                    ["modelled time (ms)", round(measurement.seconds * 1e3, 4)],
                ],
                title=f"simulated traffic ({args.engine}, 1 iteration)",
            )
        )
    report = RunReport(
        kind="pagerank",
        graph=GraphMeta(
            name=args.graph,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            scale=args.scale,
            seed=args.seed,
        ),
        config=RunConfig(
            method=result.method,
            engine=args.engine,
            num_iterations=result.iterations,
            options={
                "requested_method": args.method,
                "kernel_tier": args.kernel_tier,
            },
        ),
        convergence=Convergence(
            iterations=result.iterations,
            converged=result.converged,
            tolerance=args.tolerance,
            deltas=result.deltas,
        ),
        wall_spans=rec.as_dict(),
    )
    _write_reports(args, [report])
    _save_trace(args, tracer)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, scale=args.scale, seed=args.seed)
    method = _resolve_tier(args.method, args.kernel_tier)
    with ExitStack() as stack:
        rec = stack.enter_context(recording())
        tracer = stack.enter_context(tracing()) if args.trace else None
        registry = stack.enter_context(collecting()) if args.metrics else None
        _warmup_if_compiled(args)
        m = run_experiment(
            graph,
            method,
            graph_name=args.graph,
            engine=args.engine,
            num_iterations=args.iterations,
        )
        if tracer is not None:
            # A short executable solver pass so the trace also carries the
            # solver-side counter tracks (residual, active vertices) next
            # to the simulator's DRAM/miss-rate/drift tracks.
            pagerank(graph, method=method, max_iterations=5, tolerance=0.0)
    rows = [
        ["DRAM reads (lines)", m.reads],
        ["DRAM writes (lines)", m.writes],
        ["requests / edge", round(m.gail().requests_per_edge, 4)],
        ["instructions (M)", round(m.instructions / 1e6, 2)],
        ["modelled time (ms)", round(m.seconds * 1e3, 4)],
        ["bottleneck", m.time.bottleneck],
    ]
    iter_word = "iteration" if args.iterations == 1 else "iterations"
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{method} on {args.graph} "
            f"({args.iterations} {iter_word}, simulated)",
        )
    )
    report = report_from_measurement(
        m,
        scale=args.scale,
        seed=args.seed,
        engine=args.engine,
        wall_spans=rec.as_dict(),
        metrics=registry.as_dict() if registry is not None else None,
    )
    _write_reports(args, [report])
    _save_trace(args, tracer)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, scale=args.scale, seed=args.seed)
    rows = []
    reports = []
    baseline = None
    with ExitStack() as trace_stack:
        # One tracer spans all four runs (one shared timeline); metrics
        # registries are per run so each report carries its own.
        tracer = trace_stack.enter_context(tracing()) if args.trace else None
        for method in ("baseline", "cb", "pb", "dpb"):
            method = _resolve_tier(method, args.kernel_tier)
            with ExitStack() as stack:
                rec = stack.enter_context(recording())
                registry = (
                    stack.enter_context(collecting()) if args.metrics else None
                )
                _warmup_if_compiled(args)
                m = run_experiment(
                    graph, method, graph_name=args.graph, engine=args.engine
                )
            reports.append(
                report_from_measurement(
                    m,
                    scale=args.scale,
                    seed=args.seed,
                    engine=args.engine,
                    wall_spans=rec.as_dict(),
                    metrics=registry.as_dict() if registry is not None else None,
                )
            )
            if baseline is None:
                baseline = m
            rows.append(
                [
                    method,
                    m.reads,
                    m.writes,
                    round(m.gail().requests_per_edge, 3),
                    round(m.communication_reduction_over(baseline), 2),
                    round(m.speedup_over(baseline), 2),
                ]
            )
    print(
        format_table(
            ["method", "reads", "writes", "req/edge", "comm reduction", "speedup"],
            rows,
            title=f"strategy comparison on {args.graph} "
            f"(n={graph.num_vertices}, m={graph.num_edges})",
        )
    )
    _write_reports(args, reports)
    _save_trace(args, tracer)
    return 0


def _report_drift(args: argparse.Namespace) -> int:
    """``repro-pb report --drift``: check embedded model-drift records."""
    rows = []
    flagged = []
    checked = 0
    for path in args.reports:
        try:
            reports = load_reports(path)
        except (OSError, ValueError) as exc:
            print(f"repro-pb report: error: {exc}", file=sys.stderr)
            return 2
        for report in reports:
            key = f"{report.graph.name}/{report.config.method}"
            if report.drift is None:
                print(f"warning: {key} ({path}) carries no drift records")
                continue
            summary = DriftSummary.from_dict(report.drift)
            checked += 1
            for record in summary.records:
                over = record.exceeds(args.drift_threshold)
                rows.append(
                    [
                        key,
                        record.name,
                        f"{record.simulated:g}",
                        f"{record.modelled:g}",
                        f"{record.delta:+.4f}",
                        "DRIFT" if over else "ok",
                    ]
                )
                if over:
                    flagged.append((key, record))
    print(
        format_table(
            ["run", "metric", "simulated", "modelled", "delta", "status"],
            rows,
            title=f"model drift (threshold {args.drift_threshold:g})",
        )
    )
    if flagged:
        print(f"\n{len(flagged)} drift record(s) beyond {args.drift_threshold:g}:")
        for key, record in flagged:
            print(
                f"  {key} {record.name}: simulated {record.simulated:g} vs "
                f"modelled {record.modelled:g} (delta {record.delta:+.4f})"
            )
        return 1
    if checked == 0:
        print("\nwarning: no drift records found in the given report(s)")
        return 0
    print(f"\nno model drift across {checked} run(s)")
    return 0


def _report_summary(args: argparse.Namespace) -> int:
    """``repro-pb report --summary``: GAIL per-edge ratios per report.

    Any ``measure`` report carries MemCounters-derived totals, so its
    whole GAIL decomposition (Beamer et al.) is recomputable from the
    report alone; ``reproduce`` reports (schema 1.4) instead carry the
    fleet collector's per-cell decompositions.
    """
    header = [
        "run",
        "req/edge",
        "reads/edge",
        "writes/edge",
        "instr/edge",
        "ns/edge",
    ]
    rows = []
    skipped = []
    for path in args.reports:
        try:
            reports = load_reports(path)
        except (OSError, ValueError) as exc:
            print(f"repro-pb report: error: {exc}", file=sys.stderr)
            return 2
        for report in reports:
            if report.counters is not None:
                m = max(report.graph.num_edges, 1)
                seconds = report.time.modelled_seconds if report.time else 0.0
                instructions = report.instructions or 0.0
                rows.append(
                    [
                        report.key(),
                        f"{report.counters.total_requests / m:.4f}",
                        f"{report.counters.total_reads / m:.4f}",
                        f"{report.counters.total_writes / m:.4f}",
                        f"{instructions / m:.3f}",
                        f"{seconds / m * 1e9:.4f}",
                    ]
                )
            elif report.fleet and report.fleet.get("gail"):
                for cell, ratios in sorted(report.fleet["gail"].items()):
                    rows.append(
                        [
                            cell,
                            f"{ratios.get('requests_per_edge', 0.0):.4f}",
                            f"{ratios.get('reads_per_edge', 0.0):.4f}",
                            f"{ratios.get('writes_per_edge', 0.0):.4f}",
                            f"{ratios.get('instructions_per_edge', 0.0):.3f}",
                            f"{ratios.get('seconds_per_edge', 0.0) * 1e9:.4f}",
                        ]
                    )
            else:
                skipped.append(f"{report.kind}:{report.key()} ({path})")
    print(
        format_table(
            header,
            rows,
            title="GAIL per-edge decomposition (simulated DRAM lines, "
            "modelled time)",
        )
    )
    for key in skipped:
        print(f"warning: {key} carries no per-edge counters")
    if not rows:
        print("warning: no GAIL-capable runs in the given report(s)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.summary:
        return _report_summary(args)
    if args.drift:
        return _report_drift(args)
    if len(args.reports) != 2:
        print(
            "repro-pb report: error: a diff needs exactly two report files "
            "(before, after); use --drift for per-file drift checks",
            file=sys.stderr,
        )
        return 2
    before_path, after_path = args.reports
    try:
        before = load_reports(before_path)
        after = load_reports(after_path)
    except (OSError, ValueError) as exc:
        print(f"repro-pb report: error: {exc}", file=sys.stderr)
        return 2
    diff = diff_report_sets(before, after, threshold=args.threshold)
    rows = [
        [
            d.key,
            d.metric,
            f"{d.before:g}",
            f"{d.after:g}",
            f"{d.ratio:.3f}",
            d.status,
        ]
        for d in diff.deltas
    ]
    print(
        format_table(
            ["run", "metric", "before", "after", "after/before", "status"],
            rows,
            title=f"report diff (threshold {args.threshold:.0%})",
        )
    )
    for key in diff.unmatched_before:
        print(f"warning: {key} present only in {before_path}")
    for key in diff.unmatched_after:
        print(f"warning: {key} present only in {after_path}")
    if not diff.deltas:
        print("warning: no comparable runs between the two files")
    regressions = diff.regressions
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {args.threshold:.0%}:")
        for d in regressions:
            print(f"  {d.key} {d.metric}: {d.before:g} -> {d.after:g} (x{d.ratio:.3f})")
        return 1
    print("\nno regressions")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """``repro-pb plan``: compile and print the cell DAG, execute nothing."""
    from repro.harness.cache import MeasurementCache
    from repro.harness.reproduce import ARTIFACTS, plan_specs
    from repro.plan import compile_plan

    scale = 0.25 if args.quick else args.scale
    wanted = set(args.only or ARTIFACTS)
    specs = plan_specs(wanted, scale=scale, seed=args.seed, engine=args.engine)
    plan = compile_plan(specs)
    print(
        format_table(
            ["artifact", "cells requested", "owned", "shared"],
            plan.summary_rows(),
            title=(
                f"compiled plan: {len(specs)} artifact(s) at scale {scale:g}, "
                f"engine {args.engine}"
            ),
        )
    )
    print(
        f"\n{plan.cells_requested} cell(s) requested, "
        f"{plan.cells_unique} unique (dedup ratio {plan.dedup_ratio:.2f})"
    )
    cache = MeasurementCache(args.cache) if args.cache else None
    if cache is not None:
        hits = sum(1 for fingerprint in plan.cells if cache.has(fingerprint))
        print(
            f"cache {args.cache}: {hits} hit(s), "
            f"{plan.cells_unique - hits} cell(s) would execute"
        )
    else:
        print(f"{plan.cells_unique} cell(s) would execute (no --cache given)")
    if not args.execute:
        return 0
    return _execute_plan_cli(args, plan, cache)


def _cmd_worker(args: argparse.Namespace) -> int:
    """``repro-pb worker``: serve one coordinator until it shuts us down."""
    from repro.cluster import parse_endpoint, run_worker

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as exc:
        print(f"repro-pb worker: error: --connect: {exc}", file=sys.stderr)
        return 2
    # A standing worker should say what it is doing; default to INFO
    # like the reproduce driver rather than the CLI's warnings-only.
    configure_logging(args.verbose - args.quiet + 1)
    return run_worker(host, port, cache_dir=args.cache_dir, name=args.name)


def _execute_plan_cli(args: argparse.Namespace, plan, cache) -> int:
    """``repro-pb plan --execute``: run the DAG with fleet telemetry."""
    import contextlib

    from repro.obs.events import EventBus
    from repro.obs.events import collecting as collecting_events
    from repro.obs.progress import attach_progress
    from repro.obs.trace import TraceRecorder
    from repro.parallel.resilience import CellFailedError, SweepOptions
    from repro.plan import execute_plan

    bus = EventBus()
    tracer = TraceRecorder() if args.trace else None
    renderer = attach_progress(bus, mode=args.progress, quiet=args.quiet > 0)
    failed = False
    with collecting_events(bus):
        scope = tracing(tracer) if tracer is not None else contextlib.nullcontext()
        with scope:
            try:
                execute_plan(
                    plan,
                    workers=args.workers,
                    options=SweepOptions(
                        bind=args.bind, lease_seconds=args.lease_timeout
                    ),
                    cache=cache,
                )
            except CellFailedError as exc:
                print(f"repro-pb plan: error: {exc}", file=sys.stderr)
                failed = True
    if renderer is not None:
        renderer.finish()
    fleet = bus.fleet_summary()
    if tracer is not None:
        bus.merge_into_trace(tracer)
        tracer.save(args.trace)
        print(f"[trace written to {args.trace}]")
    cells = fleet["cells"]
    print(
        f"\nexecuted {cells['executed']}, cached {cells['cached']} "
        f"of {cells['total']} cell(s) "
        f"({cells['retries']} retried, {cells['faults']} fault(s)) "
        f"across {fleet['workers']['spawned']} worker(s)"
    )
    return 1 if failed else 0


def _serve_config(args: argparse.Namespace):
    """Build a :class:`repro.serve.ServeConfig` from CLI options."""
    from repro.serve import BatchPolicy, ServeConfig

    return ServeConfig(
        method=args.method,
        tier=args.kernel_tier,
        tolerance=args.tolerance,
        top_k=max(args.top, 1),
        policy=BatchPolicy(
            window_seconds=args.batch_window, max_batch=args.max_batch
        ),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro-pb serve``: batched personalized-PageRank answers."""
    import asyncio

    from repro.serve import PPRServer, ServeCache, generate_queries

    graph = load_graph(args.graph, scale=args.scale, seed=args.seed)
    config = _serve_config(args)
    cache = ServeCache(args.cache_dir) if args.cache_dir else None
    if args.seeds:
        queries = []
        for spec in args.seeds:
            try:
                queries.append(tuple(int(part) for part in spec.split(",")))
            except ValueError:
                print(
                    f"repro-pb serve: error: bad --seeds value {spec!r} "
                    "(expected comma-separated vertex ids)",
                    file=sys.stderr,
                )
                return 2
    else:
        queries = generate_queries(
            8, graph.num_vertices, seed=args.seed, repeat_fraction=0.25
        )

    async def _answer():
        async with PPRServer(graph, config, cache=cache) as server:
            results = await asyncio.gather(
                *(server.query(seeds) for seeds in queries)
            )
            return results, server.stats()

    try:
        results, stats = asyncio.run(_answer())
    except ValueError as exc:
        print(f"repro-pb serve: error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        seeds = ",".join(str(s) for s in result.seeds)
        source = "cache" if result.from_cache else f"batch[{result.batch_size}]"
        rows = [[int(v), f"{score:.3e}"] for v, score in result.top]
        print(
            format_table(
                ["vertex", "score"],
                rows,
                title=f"seeds [{seeds}] via {source}",
            )
        )
    s = stats.to_dict()
    print(
        f"\n{s['requests']} request(s) in {s['batches']} batch(es) "
        f"(mean occupancy {s['mean_occupancy']:.2f}, "
        f"{s['coalesced']} coalesced, cache hit rate "
        f"{s['cache_hit_rate']:.2f})"
    )
    if args.json:
        report = RunReport(
            kind="serve",
            graph=GraphMeta(
                name=args.graph,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                scale=args.scale,
                seed=args.seed,
            ),
            config=RunConfig(
                method=args.method,
                options={
                    "kernel_tier": args.kernel_tier,
                    "batch_window": args.batch_window,
                    "max_batch": args.max_batch,
                    "cached": args.cache_dir is not None,
                },
            ),
            serve=s,
        )
        report.save(args.json)
        print(f"[report written to {args.json}]")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro-pb loadgen``: seeded load replay with a latency report."""
    import json as json_module

    from repro.serve import ServeCache, generate_queries, run_load

    graph = load_graph(args.graph, scale=args.scale, seed=args.seed)
    config = _serve_config(args)
    cache = ServeCache(args.cache_dir) if args.cache_dir else None
    queries = generate_queries(
        args.queries,
        graph.num_vertices,
        seed=args.seed,
        repeat_fraction=args.repeat_fraction,
    )
    report = run_load(
        graph,
        queries,
        config=config,
        cache=cache,
        concurrency=args.concurrency,
    )
    rows = [
        ["queries", report.num_queries],
        ["wall seconds", f"{report.wall_seconds:.4f}"],
        ["queries / sec", f"{report.queries_per_sec:.1f}"],
        ["p50 latency (ms)", f"{report.p50_seconds * 1e3:.3f}"],
        ["p99 latency (ms)", f"{report.p99_seconds * 1e3:.3f}"],
        ["max latency (ms)", f"{report.max_seconds * 1e3:.3f}"],
        ["cache hit rate", f"{report.cache_hit_rate:.3f}"],
        ["mean batch occupancy", f"{report.mean_occupancy:.2f}"],
        ["batches", report.batches],
        ["coalesced", report.coalesced],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"load replay on {args.graph} "
            f"(max_batch {args.max_batch}, concurrency {args.concurrency})",
        )
    )
    if args.json:
        with open(args.json, "w") as handle:
            json_module.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[report written to {args.json}]")
    if args.p99_bound is not None and report.p99_seconds > args.p99_bound:
        print(
            f"repro-pb loadgen: p99 latency {report.p99_seconds:.4f}s exceeds "
            f"bound {args.p99_bound:.4f}s",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.harness.reproduce import main as reproduce_main

    return reproduce_main(args.reproduce_args)


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro-pb bench``: the bench-regression sentinel (lazy import)."""
    from repro.bench import run_bench_command

    return run_bench_command(args)


def _cmd_model(args: argparse.Namespace) -> int:
    machine = SIMULATED_MACHINE
    p = ModelParams(
        n=args.vertices,
        k=args.degree,
        b=machine.words_per_line,
        c=machine.cache_words,
    )
    width = choose_block_width(args.vertices, machine.cache_words)
    r = num_blocks_for_width(args.vertices, width)
    m = p.m
    rows = [
        ["pull", round((paper_pull_reads(p) + p.n / p.b) / m, 4)],
        ["cb (edge list)", round((paper_cb_edgelist_reads(p, r) + p.n / p.b) / m, 4)],
        ["dpb", round((paper_pb_reads(p) + paper_pb_writes(p)) / m, 4)],
    ]
    print(
        format_table(
            ["strategy", "modelled requests/edge"],
            rows,
            title=(
                f"Section V models: n={args.vertices}, k={args.degree}, "
                f"b={p.b}, c={p.c}, r={r}"
            ),
        )
    )
    best = min(rows, key=lambda row: row[1])
    print(f"\npredicted winner: {best[0]}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.graphs.analysis import describe

    graph = load_graph(args.graph, scale=args.scale, seed=args.seed)
    profile = describe(graph)
    rows = [
        ["vertices", profile.num_vertices],
        ["edges", profile.num_edges],
        ["avg directed degree", round(profile.average_degree, 2)],
        ["max out-degree", profile.max_out_degree],
        ["degree skew (max/mean)", round(profile.degree_skew, 1)],
        ["vertices / cache words (n/c)", round(profile.vertex_to_cache_ratio, 2)],
        ["mean label distance", round(profile.mean_label_distance, 1)],
        ["estimated gather hit rate", round(profile.estimated_gather_hit_rate, 3)],
        ["low locality?", "yes" if profile.is_low_locality() else "no"],
        ["recommended method", profile.recommended_method],
    ]
    print(format_table(["property", "value"], rows, title=f"profile of {args.graph}"))
    return 0


_COMMANDS = {
    "suite": _cmd_suite,
    "pagerank": _cmd_pagerank,
    "measure": _cmd_measure,
    "compare": _cmd_compare,
    "model": _cmd_model,
    "describe": _cmd_describe,
    "report": _cmd_report,
    "plan": _cmd_plan,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "loadgen": _cmd_loadgen,
    "reproduce": _cmd_reproduce,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # ``reproduce`` forwards everything to repro.harness.reproduce before
    # argparse sees the options (argparse.REMAINDER cannot capture a
    # leading ``--flag`` as the first positional), so ``repro-pb
    # reproduce --help`` shows the forwarded parser's own help.
    if argv and argv[0] == "reproduce":
        from repro.harness.reproduce import main as reproduce_main

        return reproduce_main(argv[1:])
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
