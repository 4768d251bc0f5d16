"""Metric definitions and the arithmetic that turns samples into metrics.

``BENCHMARK.json`` at the repository root mirrors :data:`END_TO_END` and
:data:`PER_LAYER` (``test_runner.py`` keeps them in step).  Every
workload reports every metric; ``README.md`` says what each one means on
each workload and which end-to-end metric a layer metric should move.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "percentile",
    "median",
    "parallel_layer",
    "reproduce_end_to_end",
    "reproduce_layers",
    "serve_end_to_end",
    "serve_layers",
]

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Timing bounds are as wide as ``BENCHMARK.json`` accepts, because
#: the machine's speed drifts by more than 10% within an hour (README.md,
#: "Bounds and the machine").
END_TO_END: dict[str, tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "p50_ms": ("ms", "lower", 0.25),
    "p95_ms": ("ms", "lower", 0.25),
    "throughput_qps": ("1/s", "higher", 0.25),
}

_SERVE_LAYER = (
    ("queue_wait_ms_p50", "ms", "lower"),
    ("batch_solve_ms_p50", "ms", "lower"),
    ("batch_solve_s", "s", "lower"),
    ("batch_occupancy_mean", "count", "higher"),
    ("cache_get_ms_p50", "ms", "lower"),
    ("cache_put_ms_p50", "ms", "lower"),
    ("cache_hit_frac", "ratio", "higher"),
    ("topk_ms_p50", "ms", "lower"),
    ("unattributed_ms_p50", "ms", "lower"),
    ("generator_late_ms_p99", "ms", "lower"),
)

#: name -> (unit, better) for the traced run.
PER_LAYER: dict[str, tuple[str, str]] = {
    "graphs.build_s": ("s", "lower"),
    "graphs.build_calls": ("count", "lower"),
    "plan.compile_s": ("s", "lower"),
    "plan.dispatch_s": ("s", "lower"),
    "plan.cells_executed": ("count", "lower"),
    "plan.cells_cached": ("count", "higher"),
    "kernels.make_kernel_s": ("s", "lower"),
    "kernels.make_kernel_calls": ("count", "lower"),
    "kernels.trace_gen_s": ("s", "lower"),
    "kernels.trace_accesses": ("count", "lower"),
    "memsim.replay_s": ("s", "lower"),
    "memsim.accesses_per_s": ("1/s", "higher"),
    "memsim.dram_requests": ("count", "lower"),
    "models.s": ("s", "lower"),
    "models.calls": ("count", "lower"),
    "harness.cache_get_s": ("s", "lower"),
    "harness.cache_gets": ("count", "lower"),
    "harness.cache_put_s": ("s", "lower"),
    "harness.cache_puts": ("count", "lower"),
    "harness.cache_put_bytes": ("bytes", "lower"),
    "harness.render_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "unattributed_frac": ("ratio", "lower"),
    "tracing_overhead_frac": ("ratio", "lower"),
    "parallel.worker_busy_frac": ("ratio", "higher"),
    "parallel.overhead_s": ("s", "lower"),
    "parallel.straggler_s": ("s", "lower"),
    "parallel.retries": ("count", "lower"),
    "parallel.worker_peak_rss_mb": ("MiB", "lower"),
    **{
        f"serve.{name}.{step}": (unit, better)
        for step in ("light", "overload")
        for name, unit, better in _SERVE_LAYER
    },
    "serve.useful_solve_frac.overload": ("ratio", "higher"),
    "serve.goodput_qps.overload": ("1/s", "higher"),
}


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation (NumPy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50)


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------
def reproduce_end_to_end(commands: Sequence[dict]) -> dict[str, float]:
    """End-to-end metrics over one run's untraced commands.

    The latency percentiles are over the plan cells the commands
    executed (about a thousand a run), or over the commands themselves
    where no cell executes (``reproduce-warm``).  Throughput counts plan
    cells resolved (executed or read from the cache) per second of
    command wall, so it restates ``wall_s`` (README.md, "Aliases").
    """
    walls = [c["wall_s"] for c in commands]
    latency = [s for c in commands for s in c.get("cell_s", ())] or walls
    return {
        "wall_s": median(walls),
        "setup_s": median(c["setup_s"] for c in commands),
        "peak_rss_mb": median(c["rss_mb"] for c in commands),
        "p50_ms": median(latency) * 1e3,
        "p95_ms": percentile(latency, 95) * 1e3,
        "throughput_qps": median(
            (c["stats"]["executed"] + c["stats"]["cache_hits"]) / c["wall_s"]
            for c in commands
        ),
    }


def _straggler_s(puts: Sequence[tuple[float, float]], workers: int) -> float:
    """Length of the tail in which fewer than ``workers`` cells ran.

    Each cache put marks a cell's completion; its start is that moment
    minus the cell's own seconds.
    """
    if not puts:
        return 0.0
    events = sorted(
        [(end - seconds, 1) for end, seconds in puts] + [(end, -1) for end, _ in puts],
        key=lambda event: (event[0], event[1]),
    )
    last_end = max(end for end, _ in puts)
    full_until = None
    running = 0
    for (at, step), following in zip(events, events[1:] + [(last_end, 0)]):
        running += step
        if running >= workers:
            full_until = following[0]
    start = min(end - seconds for end, seconds in puts)
    return last_end - (full_until if full_until is not None else start)


def parallel_layer(
    puts: Sequence[tuple[float, float]], plan_s: float, workers: int
) -> dict[str, float]:
    """Pool utilisation derived from cache puts and the plan's interval."""
    cell_s = [seconds for _, seconds in puts]
    total = sum(cell_s)
    if not plan_s:
        return {"worker_busy_frac": 0.0, "overhead_s": 0.0, "straggler_s": 0.0}
    return {
        "worker_busy_frac": total / (workers * plan_s),
        "overhead_s": plan_s - max(total / workers, max(cell_s, default=0.0)),
        "straggler_s": _straggler_s(puts, workers),
    }


def _zero_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def reproduce_layers(
    traced: Sequence[dict], untraced: Sequence[dict], workers: int
) -> dict[str, float]:
    """Per-layer metrics: the median over traced commands of each value."""
    per_command = []
    for command in traced:
        trace = command["trace"]
        self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
        stats = command["stats"] or {}
        replay = self_s.get("memsim.replay", 0.0)
        accesses = counters.get("kernels.trace_accesses", 0)
        wall = trace["wall_s"]
        values = {
            "graphs.build_s": self_s.get("graphs.build", 0.0),
            "graphs.build_calls": calls.get("graphs.build", 0),
            "plan.compile_s": self_s.get("plan.compile", 0.0),
            "plan.dispatch_s": self_s.get("plan.dispatch", 0.0),
            "plan.cells_executed": stats.get("executed", 0),
            "plan.cells_cached": stats.get("cache_hits", 0),
            "kernels.make_kernel_s": self_s.get("kernels.make_kernel", 0.0),
            "kernels.make_kernel_calls": calls.get("kernels.make_kernel", 0),
            "kernels.trace_gen_s": self_s.get("kernels.trace_gen", 0.0),
            "kernels.trace_accesses": accesses,
            "memsim.replay_s": replay,
            "memsim.accesses_per_s": accesses / replay if replay else 0.0,
            "memsim.dram_requests": counters.get("memsim.dram_requests", 0),
            "models.s": self_s.get("models", 0.0),
            "models.calls": calls.get("models", 0),
            "harness.cache_get_s": self_s.get("harness.cache_get", 0.0),
            "harness.cache_gets": calls.get("harness.cache_get", 0),
            "harness.cache_put_s": self_s.get("harness.cache_put", 0.0),
            "harness.cache_puts": calls.get("harness.cache_put", 0),
            "harness.cache_put_bytes": counters.get("harness.cache_put_bytes", 0),
            "harness.render_s": self_s.get("harness.render", 0.0),
            "unattributed_s": wall - trace["root_s"],
            "unattributed_frac": (wall - trace["root_s"]) / wall,
            "parallel.retries": trace["retries"],
            "parallel.worker_peak_rss_mb": command["children_rss_mb"],
        }
        for name, value in parallel_layer(trace["puts"], trace["plan_s"], workers).items():
            values[f"parallel.{name}"] = value
        per_command.append(values)
    layers = _zero_layers()
    for name in per_command[0]:
        layers[name] = median(values[name] for values in per_command)
    layers["tracing_overhead_frac"] = (
        median(c["wall_s"] for c in traced) / median(c["wall_s"] for c in untraced) - 1
    )
    return layers


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_end_to_end(setups: Sequence[float], light: dict, overload: dict) -> dict[str, float]:
    """End-to-end metrics of one serve session (see README for each).

    Overload keeps the server at or near saturation, so its requests that
    missed the cache (``cache_misses``: queued for a batch solve) over its
    makespan is the server's solve throughput; ``wall_s`` is the inverse.
    """
    latency = light["latency_s"]
    queued = overload["server"]["cache_misses"]
    return {
        "wall_s": overload["makespan_s"] / queued,
        "setup_s": median(setups),
        "peak_rss_mb": max(light["rss_mb"], overload["rss_mb"]),
        "p50_ms": percentile(latency, 50) * 1e3,
        "p95_ms": percentile(latency, 95) * 1e3,
        "throughput_qps": queued / overload["makespan_s"],
    }


def serve_layers(traced: dict[str, dict], untraced_overload: dict) -> dict[str, float]:
    """Per-layer metrics from the traced ``light`` and ``overload`` steps."""
    layers = _zero_layers()
    for step, result in traced.items():
        trace = result["trace"]
        for name, _, _ in _SERVE_LAYER:
            if name != "generator_late_ms_p99":
                layers[f"serve.{name}.{step}"] = trace[name]
        layers[f"serve.generator_late_ms_p99.{step}"] = result["late_ms_p99"]
    layers["serve.useful_solve_frac.overload"] = traced["overload"]["trace"][
        "useful_solve_frac"
    ]
    layers["serve.goodput_qps.overload"] = traced["overload"]["goodput_qps"]
    unattributed = sum(r["trace"]["unattributed_s"] for r in traced.values())
    latency = sum(r["trace"]["latency_s"] for r in traced.values())
    layers["unattributed_s"] = unattributed
    layers["unattributed_frac"] = unattributed / latency if latency else 0.0
    layers["tracing_overhead_frac"] = (
        traced["overload"]["makespan_s"] / untraced_overload["makespan_s"] - 1
    )
    return layers
