"""Fresh-process entry points: one ``reproduce`` command or one serve step.

The runner starts every unit of measured work as a new interpreter, so
each sample pays the import, graph build and start-up costs a user pays
and so memory is measured per process::

    python -m benchmarks.e2e.child reproduce --seed 42 --scale 0.05 \\
        --workers 1 --cache DIR --output DIR [--trace]
    python -m benchmarks.e2e.child serve --step light --seed 42 \\
        --seconds 24 --cache DIR [--trace]

The last line of standard output is one JSON object.  Timestamps in it
named ``*_at`` come from ``time.monotonic()``, which is one clock for
every process of the machine, so the runner can subtract its own spawn
time from them.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # first statement: the traced window starts here

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

from benchmarks.e2e.metrics import percentile  # noqa: E402

__all__ = [
    "SERVE_STEPS",
    "reproduce_argv",
    "run_reproduce_command",
    "run_serve_step",
    "serve_inputs",
]

#: Serve step shapes: arrival rate (requests/s), arrival process, and the
#: client deadline after which a request is abandoned (``None`` = wait
#: forever).  ``paced`` arrivals are evenly spaced with +-10% seeded
#: jitter, so no request queues behind another; ``poisson`` arrivals
#: have exponential gaps.  README.md says why light is paced and why its
#: gap (125 ms) is about twice the longest solve.
SERVE_STEPS = {
    "setup": {"rate": 0.0, "arrivals": "paced", "deadline": None, "index": 0},
    "light": {"rate": 8.0, "arrivals": "paced", "deadline": None, "index": 1},
    "overload": {"rate": 80.0, "arrivals": "poisson", "deadline": 1.0, "index": 2},
}
SERVE_VERTICES = 4096
SERVE_DEGREE = 8
REPEAT_FRACTION = 0.3
#: An overload answer counts toward goodput when it lands this soon after
#: its due time.
GOODPUT_LATENCY_S = 0.25
#: Answers compared bit for bit against a one-query solve after a step.
CHECK_SAMPLE = 16
#: Requests whose answers are kept for that check (most overload
#: requests are abandoned, so more are kept than are checked).
CHECK_CANDIDATES = 96
#: Delay between the server becoming ready and the first due time.
LEAD_S = 0.05


def _peak_rss_mb(who: int) -> float:
    peak = resource.getrusage(who).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------
def reproduce_argv(
    *, seed: int, scale: float, workers: int, cache: str, output: str
) -> list[str]:
    """The ``repro-pb reproduce`` command line one benchmark sample runs."""
    return [
        "--scale", repr(scale), "--seed", str(seed), "--workers", str(workers),
        "--cache", cache, "--output", output, "-q", "--progress", "off",
    ]


def run_reproduce_command(argv: list[str], *, trace: bool) -> dict:
    """Run ``reproduce.main(argv)`` in this process and describe the run.

    Untraced, the only hook is a timestamp at ``execute_plan`` entry (the
    end of set-up) plus the plan counters it returns.  Traced, every
    layer function is wrapped (:class:`~benchmarks.e2e.tracing.SpanTracer`).
    """
    from repro.harness import reproduce

    out: dict = {"setup_at": None, "stats": None}
    tracer = None
    if trace:
        from benchmarks.e2e.tracing import SpanTracer

        tracer = SpanTracer().install()
    original = reproduce.execute_plan

    def execute_plan(plan, *args, **kwargs):
        if out["setup_at"] is None:
            out["setup_at"] = time.monotonic()
        results = original(plan, *args, **kwargs)
        out["stats"] = results.stats.as_dict()
        return results

    reproduce.execute_plan = execute_plan
    try:
        out["rc"] = reproduce.main(argv)
    finally:
        reproduce.execute_plan = original
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - T0
    out["rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    out["children_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        plan = tracer.plan_calls[0] if tracer.plan_calls else None
        origin = plan["start"] if plan else 0.0
        out["trace"] = {
            "wall_s": wall,
            "root_s": tracer.root_s,
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counters": tracer.counters,
            "plan_s": plan["end"] - plan["start"] if plan else 0.0,
            "retries": sum(call["retries"] for call in tracer.plan_calls),
            # (seconds after execute_plan entry, cell seconds) per cache put
            "puts": [(at - origin, seconds) for at, seconds in tracer.puts],
            "fired": tracer.fired,
            "missing": tracer.missing,
        }
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_inputs(
    seed: int, step: str, *, seconds: float, num_vertices: int
) -> tuple[list[tuple[int, ...]], list[float]]:
    """Seeded queries and due times (seconds from the step start)."""
    import numpy as np

    from repro.serve import generate_queries

    shape = SERVE_STEPS[step]
    count = int(round(shape["rate"] * seconds))
    query_seed, arrival_seed = np.random.SeedSequence(
        [seed, shape["index"]]
    ).generate_state(2)
    queries = generate_queries(
        count, num_vertices, seed=int(query_seed), repeat_fraction=REPEAT_FRACTION
    )
    if count == 0:
        return queries, []
    rng = np.random.default_rng(arrival_seed)
    mean_gap = 1.0 / shape["rate"]
    if shape["arrivals"] == "poisson":
        gaps = rng.exponential(mean_gap, count)
    else:
        gaps = mean_gap * rng.uniform(0.9, 1.1, count)
    return queries, np.cumsum(gaps).tolist()


def _percentile(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


async def _open_loop(server, queries, records, deadline, keep) -> float:
    """Send each query at its due time; return the schedule origin."""
    from benchmarks.e2e.tracing import CURRENT_REQUEST

    loop = asyncio.get_running_loop()
    origin = loop.time() + LEAD_S

    async def one(index: int, record: dict, seeds) -> None:
        CURRENT_REQUEST.set(record)
        try:
            call = server.query(seeds)
            if deadline is None:
                result = await call
            else:
                limit = origin + record["due"] + deadline - loop.time()
                result = await asyncio.wait_for(call, limit)
        except asyncio.TimeoutError:
            record["outcome"] = "abandoned"
            return
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            record["outcome"] = "error"
            record["error"] = repr(exc)
            return
        record["done"] = loop.time() - origin
        record["outcome"] = "answered"
        if index in keep:
            keep[index] = result

    tasks: list[asyncio.Task] = []
    all_sent = loop.create_future()

    def send(index: int, record: dict, seeds) -> None:
        # Generator lateness is how late this timer fired, not how long the
        # event loop then took to start the request's task (that wait is
        # part of the request's latency, which runs from its due time).
        record["sent"] = loop.time() - origin
        tasks.append(loop.create_task(one(index, record, seeds)))
        if len(tasks) == len(records):
            all_sent.set_result(None)

    for index, (record, seeds) in enumerate(zip(records, queries)):
        loop.call_at(origin + record["due"], send, index, record, seeds)
    await all_sent
    _, pending = await asyncio.wait(tasks, timeout=120.0)
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    return origin


def _check_answers(graph, config, queries, keep: dict) -> dict:
    """Untimed: sampled answers must equal a one-query solve bit for bit."""
    import numpy as np

    from repro.kernels.personalized import personalized_pagerank, restart_teleport

    answered = [index for index, result in keep.items() if result is not None]
    sample = answered[:CHECK_SAMPLE]
    mismatches = []
    for index in sample:
        result = keep[index]
        reference = personalized_pagerank(
            graph,
            restart_teleport(graph.num_vertices, queries[index]),
            method=config.method,
            damping=config.damping,
            tolerance=config.tolerance,
            max_iterations=config.max_iterations,
            tier=config.tier,
        ).scores
        order = np.argsort(-reference.astype(np.float64), kind="stable")
        top = tuple((int(v), float(reference[v])) for v in order[: config.top_k])
        if not np.array_equal(result.scores, reference) or tuple(result.top) != top:
            mismatches.append(index)
    return {"checked": len(sample), "mismatches": mismatches}


def run_serve_step(
    step: str,
    *,
    seed: int,
    seconds: float,
    cache_dir: str,
    trace: bool,
    num_vertices: int = SERVE_VERTICES,
) -> dict:
    """Build the graph, start a server, drive one open-loop step.

    ``step="setup"`` stops once the server is ready: it measures set-up
    only.  The graph is ``urand`` with ``num_vertices`` vertices and
    degree 8, drawn from ``seed``; the server runs the default
    :class:`~repro.serve.ServeConfig` on an empty :class:`ServeCache`.
    """
    import numpy as np

    from repro.graphs import build_csr, uniform_random_graph
    from repro.serve import PPRServer, ServeCache, ServeConfig

    probe = None
    if trace:
        from benchmarks.e2e.tracing import ServeProbe

        probe = ServeProbe().install()
    graph = build_csr(uniform_random_graph(num_vertices, SERVE_DEGREE, seed=seed))
    config = ServeConfig()
    cache = ServeCache(cache_dir)
    queries, dues = serve_inputs(seed, step, seconds=seconds, num_vertices=num_vertices)
    records = [{"due": due} for due in dues]
    order = np.random.default_rng([seed, SERVE_STEPS[step]["index"]]).permutation(
        len(records)
    )
    keep = {int(index): None for index in order[:CHECK_CANDIDATES]}
    out: dict = {}

    async def session() -> None:
        loop = asyncio.get_running_loop()
        # One solver thread: with the event-loop thread that is the
        # process's whole thread budget.
        loop.set_default_executor(ThreadPoolExecutor(max_workers=1))
        async with PPRServer(graph, config, cache=cache) as server:
            out["setup_at"] = time.monotonic()
            if records:
                origin = await _open_loop(
                    server, queries, records, SERVE_STEPS[step]["deadline"], keep
                )
        if records:
            out["drained_s"] = loop.time() - origin
        out["server"] = server.stats().to_dict()
        out["threads"] = threading.active_count()

    try:
        asyncio.run(session())
    finally:
        if probe is not None:
            probe.uninstall()
    out["rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    if not records:
        return out

    answered = [r for r in records if r.get("outcome") == "answered"]
    latency = [r["done"] - r["due"] for r in answered]
    late = [r["sent"] - r["due"] for r in records if "sent" in r]
    out.update(
        sent=len(late),
        answered=len(answered),
        abandoned=sum(r.get("outcome") == "abandoned" for r in records),
        errors=sum(r.get("outcome") == "error" for r in records),
        lost=sum("outcome" not in r for r in records),
        due_s=[r["due"] for r in answered],
        latency_s=latency,
        makespan_s=out["drained_s"] - records[0]["due"],
        goodput_qps=sum(x <= GOODPUT_LATENCY_S for x in latency) / seconds,
        late_ms_p99=_percentile(late, 99) * 1e3,
        check=_check_answers(graph, config, queries, keep),
    )
    if probe is not None:
        out["trace"] = _serve_trace(probe, out["server"], answered, latency)
    return out


def _serve_trace(probe, server_stats: dict, answered, latency) -> dict:
    """Per-request breakdown of one traced step (milliseconds unless ``_s``).

    Batch occupancy and cache hit rate are the server's own counters.
    """
    parts = []
    for record, total in zip(answered, latency):
        batch = record.get("batch")
        batch_s = (
            batch["recheck_s"] + batch["solve_s"] + batch["put_s"] if batch else 0.0
        )
        accounted = (
            (record["sent"] - record["due"])
            + record.get("get_s", 0.0)
            + record.get("queue_wait_s", 0.0)
            + batch_s
            + record.get("topk_s", 0.0)
        )
        parts.append(total - accounted)
    useful, solves = probe.useful_solves()
    ms = 1e3
    return {
        "queue_wait_ms_p50": _percentile(
            [r["queue_wait_s"] for r in answered if "queue_wait_s" in r], 50
        ) * ms,
        "batch_solve_ms_p50": _percentile(probe.solve_s, 50) * ms,
        "batch_solve_s": sum(probe.solve_s),
        "batch_occupancy_mean": server_stats["mean_occupancy"],
        "cache_get_ms_p50": _percentile(probe.get_s, 50) * ms,
        "cache_put_ms_p50": _percentile(probe.put_s, 50) * ms,
        "cache_hit_frac": server_stats["cache_hit_rate"],
        "topk_ms_p50": _percentile([r.get("topk_s", 0.0) for r in answered], 50) * ms,
        "unattributed_ms_p50": _percentile(parts, 50) * ms,
        "unattributed_s": sum(parts),
        "latency_s": sum(latency),
        "useful_solve_frac": useful / solves if solves else 0.0,
        "fired": probe.fired,
        "missing": probe.missing,
    }


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    sub = parser.add_subparsers(dest="kind", required=True)
    rep = sub.add_parser("reproduce")
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--scale", type=float, required=True)
    rep.add_argument("--workers", type=int, required=True)
    rep.add_argument("--cache", required=True)
    rep.add_argument("--output", required=True)
    rep.add_argument("--trace", action="store_true")
    srv = sub.add_parser("serve")
    srv.add_argument("--step", choices=tuple(SERVE_STEPS), required=True)
    srv.add_argument("--seed", type=int, required=True)
    srv.add_argument("--seconds", type=float, default=0.0)
    srv.add_argument("--cache", required=True)
    srv.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.kind == "reproduce":
        result = run_reproduce_command(
            reproduce_argv(
                seed=args.seed, scale=args.scale, workers=args.workers,
                cache=args.cache, output=args.output,
            ),
            trace=args.trace,
        )
    else:
        result = run_serve_step(
            args.step, seed=args.seed, seconds=args.seconds,
            cache_dir=args.cache, trace=args.trace,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
