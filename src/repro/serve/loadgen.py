"""Deterministic load generation for the serve tier.

Drives a :class:`repro.serve.server.PPRServer` with a seeded query
stream and reports the latency/throughput distribution.  Everything
about the *workload* is deterministic — query seed sets, arrival
concurrency, repeat fraction — so the warm-cache hit rate is a fixed
function of the seed and is safe to gate in the bench sentinel, while
the latencies themselves are host timing and stay ungated
(``wall_seconds/*`` patterns).  Behind ``repro-pb loadgen`` and
``benchmarks/bench_serve_latency.py``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, asdict
from typing import Any, Sequence

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.serve.cache import ServeCache
from repro.serve.server import PPRServer, ServeConfig

__all__ = ["generate_queries", "LoadReport", "run_load"]


def generate_queries(
    num_queries: int,
    num_vertices: int,
    *,
    seed: int = 42,
    max_seeds: int = 3,
    repeat_fraction: float = 0.5,
) -> list[tuple[int, ...]]:
    """A seeded stream of seed-set queries with a known repeat rate.

    Roughly ``repeat_fraction`` of the queries re-issue an earlier seed
    set (drawn uniformly from the history), which is what makes the
    warm-cache hit rate of a replayed stream deterministic.  Seed sets
    are 1..``max_seeds`` distinct vertices.
    """
    if num_queries < 0:
        raise ValueError(f"num_queries must be >= 0, got {num_queries}")
    if num_vertices < 1:
        raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
    if not 0.0 <= repeat_fraction <= 1.0:
        raise ValueError(f"repeat_fraction must be in [0, 1], got {repeat_fraction}")
    max_seeds = max(1, min(max_seeds, num_vertices))
    rng = np.random.default_rng(seed)
    queries: list[tuple[int, ...]] = []
    for _ in range(num_queries):
        if queries and rng.random() < repeat_fraction:
            queries.append(queries[int(rng.integers(len(queries)))])
        else:
            size = int(rng.integers(1, max_seeds + 1))
            picks = rng.choice(num_vertices, size=size, replace=False)
            queries.append(tuple(sorted(int(v) for v in picks)))
    return queries


@dataclass(frozen=True)
class LoadReport:
    """Latency/throughput outcome of one load run."""

    num_queries: int
    wall_seconds: float
    queries_per_sec: float
    p50_seconds: float
    p99_seconds: float
    max_seconds: float
    cache_hit_rate: float
    mean_occupancy: float
    batches: int
    coalesced: int
    stats: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def run_load(
    graph: CSRGraph,
    queries: Sequence[Sequence[int]],
    *,
    config: ServeConfig | None = None,
    cache: ServeCache | None = None,
    concurrency: int = 8,
) -> LoadReport:
    """Replay ``queries`` against a fresh server; report the distribution.

    ``concurrency`` bounds in-flight requests (a semaphore models closed-
    loop clients); higher concurrency fills batches closer to
    ``max_batch``.  Queries are issued in order; per-query latency spans
    enqueue to answered.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    config = config or ServeConfig()

    async def _drive() -> tuple[list[float], float, Any]:
        latencies = [0.0] * len(queries)
        gate = asyncio.Semaphore(concurrency)
        async with PPRServer(graph, config, cache=cache) as server:
            loop = asyncio.get_running_loop()

            async def one(index: int, seeds: Sequence[int]) -> None:
                async with gate:
                    started = loop.time()
                    await server.query(seeds)
                    latencies[index] = loop.time() - started

            started = time.perf_counter()
            await asyncio.gather(
                *(one(i, seeds) for i, seeds in enumerate(queries))
            )
            wall = time.perf_counter() - started
            stats = server.stats()
        return latencies, wall, stats

    latencies, wall, stats = asyncio.run(_drive())
    lat = np.asarray(latencies, dtype=np.float64)
    return LoadReport(
        num_queries=len(queries),
        wall_seconds=wall,
        queries_per_sec=len(queries) / wall if wall > 0 else 0.0,
        p50_seconds=float(np.percentile(lat, 50)) if lat.size else 0.0,
        p99_seconds=float(np.percentile(lat, 99)) if lat.size else 0.0,
        max_seconds=float(lat.max()) if lat.size else 0.0,
        cache_hit_rate=stats.cache_hit_rate,
        mean_occupancy=stats.mean_occupancy,
        batches=stats.batches,
        coalesced=stats.coalesced,
        stats=stats.to_dict(),
    )
