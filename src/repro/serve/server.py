"""The asyncio personalized-PageRank server.

:class:`PPRServer` answers top-k personalized-PageRank queries by
coalescing concurrent requests into batched multi-source kernel runs
(:func:`repro.kernels.personalized.multi_personalized_pagerank`), the
serving analogue of propagation blocking's bin pass: the graph-wide
preprocessing (bin layout, transpose, degree vector) is paid once per
batch instead of once per query.

Request lifecycle::

    query(seeds) ── cache hit ──────────────────────────► QueryResult
        │ miss
        ▼
    BatchQueue ──window/max_batch──► dispatcher ──► one multi-source run
                                                       │  (executor thread,
                                                       │   fault-injected,
                                                       │   retried)
    future.set_result ◄── cache.put ◄──────────────────┘

Guarantees:

* **Bit-identical to serial.**  Batched queries share the kernel's exact
  single-query iteration loop, so a coalesced answer equals the one-at-
  a-time answer bit for bit (``tests/serve/test_batch_equivalence.py``).
* **Exactly-once.**  Every accepted request owns one
  :class:`asyncio.Future`, resolved at a single point in the dispatcher.
  Injected crashes/timeouts/corruption (:mod:`repro.parallel.faults`)
  retry the *batch*; the plan's ``max_per_cell`` bound makes retries
  converge, and no code path can resolve a future twice or drop it
  (``tests/serve/test_chaos.py``).
* **Exact invalidation.**  :meth:`apply_updates` re-keys cached entries
  whose seeds provably cannot observe the change and drops the rest
  (:func:`repro.serve.updates.dirty_ancestors`); maintained global
  scores re-propagate only the update residual through
  :func:`repro.kernels.delta.delta_repropagate`.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass, field, asdict
from typing import Any, Sequence

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.kernels.base import DAMPING
from repro.kernels.delta import delta_repropagate, pagerank_delta
from repro.kernels.personalized import multi_personalized_pagerank, restart_teleport
from repro.obs import events as _events
from repro.obs.spans import span
from repro.parallel.faults import (
    CORRUPT_RESULT,
    FaultInjected,
    FaultPlan,
    InjectedCrash,
    InjectedTimeout,
    is_corrupt,
)
from repro.serve.batching import BatchPolicy, BatchQueue
from repro.serve.cache import ServeCache, canonical_seeds, serve_fingerprint
from repro.serve.updates import EdgeUpdate, UpdateReport, apply_edge_updates, dirty_ancestors, update_residual
from repro.utils.fingerprint import stable_digest

__all__ = ["ServeConfig", "ServeStats", "QueryResult", "PPRServer"]


@dataclass(frozen=True)
class ServeConfig:
    """Solver and batching configuration of one server."""

    method: str = "dpb"
    tier: str = "numpy"
    damping: float = DAMPING
    tolerance: float = 1e-8
    max_iterations: int = 200
    top_k: int = 10
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    #: Deterministic fault schedule applied around batch kernel runs
    #: (``None`` = no injection; tests pass plans, production reads
    #: ``REPRO_FAULT_PLAN`` via :meth:`FaultPlan.from_env` themselves).
    fault_plan: FaultPlan | None = None
    #: Hard cap on per-batch retry attempts — a backstop far above any
    #: plan's ``max_per_cell`` guarantee; exceeding it fails the batch's
    #: requests with an exception (still exactly-once).
    max_batch_retries: int = 16

    def solver_params(self) -> dict[str, Any]:
        """The params that determine *scores* — the cache-key component.

        The kernel tier is deliberately excluded: tiers are bit-identical
        by contract, so including one would fragment the cache without
        changing any answer.
        """
        return {
            "method": self.method,
            "damping": self.damping,
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
        }


@dataclass(frozen=True)
class QueryResult:
    """One answered query."""

    seeds: tuple[int, ...]
    fingerprint: str
    #: Top-k ``(vertex, score)`` pairs, ordered by (-score, vertex id) —
    #: a total order, so equal score vectors always serve equal rankings.
    top: tuple[tuple[int, float], ...]
    scores: np.ndarray
    from_cache: bool
    #: Occupancy of the batch that computed this answer (0 = cache hit).
    batch_size: int


@dataclass(frozen=True)
class ServeStats:
    """Counter snapshot (the ``serve`` section of run reports)."""

    requests: int
    batches: int
    coalesced: int
    mean_occupancy: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    faults_injected: int
    retries: int
    updates_applied: int
    entries_carried: int
    entries_invalidated: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def topk(scores: np.ndarray, k: int) -> tuple[tuple[int, float], ...]:
    """Deterministic top-k: descending score, ascending id on ties.

    A stable argsort over negated scores realizes exactly the
    ``(-score, vertex)`` total order, so two bit-identical score vectors
    always produce the same ranking — the property the differential and
    invalidation suites compare on.
    """
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")[:k]
    return tuple((int(v), float(scores[v])) for v in order)


@dataclass
class _Pending:
    """One enqueued request: its identity and its single-resolution slot."""

    fingerprint: str
    seeds: tuple[int, ...]
    future: asyncio.Future


class PPRServer:
    """Batched, cached, incrementally-maintained PPR serving (module doc).

    Use as an async context manager::

        async with PPRServer(graph, config, cache=cache) as server:
            result = await server.query([3, 17])
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: ServeConfig | None = None,
        *,
        cache: ServeCache | None = None,
    ) -> None:
        self.graph = graph
        self.config = config or ServeConfig()
        self.cache = cache
        self.graph_fp = stable_digest(graph)
        self._queue = BatchQueue(self.config.policy)
        self._dispatcher: asyncio.Task | None = None
        self._maintenance = asyncio.Lock()
        self._global_scores: np.ndarray | None = None
        self._counters = {
            "requests": 0,
            "batches": 0,
            "coalesced": 0,
            "occupancy_sum": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "faults_injected": 0,
            "retries": 0,
            "updates_applied": 0,
            "entries_carried": 0,
            "entries_invalidated": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "PPRServer":
        self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    def start(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def stop(self) -> None:
        """Drain pending batches, then stop the dispatcher."""
        self._queue.close()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    async def query(
        self, seeds: Sequence[int], *, top_k: int | None = None
    ) -> QueryResult:
        """Answer one personalized-PageRank query (await the result).

        Cache hits return immediately (one small-file disk read — no
        kernel run, no batching delay); misses enqueue for the next
        coalesced batch.
        """
        if self._dispatcher is None:
            raise RuntimeError("server is not started (use 'async with PPRServer')")
        k = self.config.top_k if top_k is None else top_k
        seed_tuple = canonical_seeds(seeds, self.graph.num_vertices)
        fingerprint = serve_fingerprint(
            self.graph_fp, seed_tuple, self.config.solver_params()
        )
        self._counters["requests"] += 1
        with span("serve.request"):
            cached = self.cache.get(fingerprint) if self.cache is not None else None
            if cached is not None:
                self._counters["cache_hits"] += 1
                _events.emit(
                    "serve_cache_hit", fingerprint=fingerprint, seeds=len(seed_tuple)
                )
                _events.emit(
                    "serve_request",
                    fingerprint=fingerprint,
                    seeds=len(seed_tuple),
                    cached=True,
                )
                return QueryResult(
                    seeds=seed_tuple,
                    fingerprint=fingerprint,
                    top=topk(cached, k),
                    scores=cached,
                    from_cache=True,
                    batch_size=0,
                )
            self._counters["cache_misses"] += 1
            _events.emit(
                "serve_request",
                fingerprint=fingerprint,
                seeds=len(seed_tuple),
                cached=False,
            )
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._queue.put(_Pending(fingerprint, seed_tuple, future))
            scores, batch_size = await future
        return QueryResult(
            seeds=seed_tuple,
            fingerprint=fingerprint,
            top=topk(scores, k),
            scores=scores,
            from_cache=False,
            batch_size=batch_size,
        )

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            batch = await self._queue.next_batch()
            if not batch:
                return
            async with self._maintenance:
                try:
                    await self._run_batch(batch)
                except Exception as exc:  # resolve, never drop, on failure
                    for pending in batch:
                        if not pending.future.done():
                            pending.future.set_exception(exc)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        # Coalesce duplicate queries: one solve per distinct fingerprint.
        unique: dict[str, tuple[int, ...]] = {}
        for pending in batch:
            unique.setdefault(pending.fingerprint, pending.seeds)
        self._counters["coalesced"] += len(batch) - len(unique)

        # A concurrent request may have populated the cache after this
        # request enqueued; serve those without recomputing.
        scores_by_fp: dict[str, np.ndarray] = {}
        to_solve: list[tuple[str, tuple[int, ...]]] = []
        for fingerprint, seeds in unique.items():
            cached = self.cache.get(fingerprint) if self.cache is not None else None
            if cached is not None:
                self._counters["cache_hits"] += 1
                scores_by_fp[fingerprint] = cached
            else:
                to_solve.append((fingerprint, seeds))

        attempts = 0
        if to_solve:
            n = self.graph.num_vertices
            teleports = [restart_teleport(n, seeds) for _, seeds in to_solve]
            run = functools.partial(
                multi_personalized_pagerank,
                self.graph,
                teleports,
                method=self.config.method,
                damping=self.config.damping,
                tolerance=self.config.tolerance,
                max_iterations=self.config.max_iterations,
                tier=self.config.tier,
            )
            started = time.perf_counter()
            results = await self._run_with_faults(
                run, stable_digest(tuple(fp for fp, _ in to_solve))
            )
            seconds = time.perf_counter() - started
            attempts = results.pop("attempts")
            for (fingerprint, seeds), result in zip(to_solve, results["results"]):
                scores_by_fp[fingerprint] = result.scores
                if self.cache is not None:
                    self.cache.put(
                        fingerprint, seeds, result.scores, seconds / len(to_solve)
                    )

        for pending in batch:
            if not pending.future.done():
                pending.future.set_result(
                    (scores_by_fp[pending.fingerprint], len(batch))
                )
        self._counters["batches"] += 1
        self._counters["occupancy_sum"] += len(batch)
        _events.emit(
            "serve_batch",
            occupancy=len(batch),
            solved=len(to_solve),
            coalesced=len(batch) - len(unique),
            attempts=attempts,
        )

    async def _run_with_faults(self, run, batch_fingerprint: str) -> dict[str, Any]:
        """Run the batch kernel under the fault plan until a clean result.

        The plan's ``max_per_cell`` bound guarantees some attempt is
        fault-free, so the loop terminates; ``max_batch_retries`` is a
        backstop against misconfigured plans.  Either way every request
        gets resolved exactly once (here on success, in the dispatcher's
        exception path on exhaustion).
        """
        loop = asyncio.get_running_loop()
        plan = self.config.fault_plan
        for attempt in range(self.config.max_batch_retries + 1):
            fault = plan.decide(batch_fingerprint, attempt) if plan else None
            try:
                if fault == "crash":
                    raise InjectedCrash(f"injected crash (attempt {attempt})")
                if fault == "timeout":
                    raise InjectedTimeout(f"injected timeout (attempt {attempt})")
                with span("serve.batch_solve"):
                    results = await loop.run_in_executor(None, run)
                if fault == "corrupt":
                    results = CORRUPT_RESULT
                if is_corrupt(results):
                    raise InjectedCrash(
                        f"injected corrupt result (attempt {attempt})"
                    )
                return {"results": results, "attempts": attempt + 1}
            except FaultInjected:
                self._counters["faults_injected"] += 1
                self._counters["retries"] += 1
        raise RuntimeError(
            f"batch failed after {self.config.max_batch_retries + 1} attempts"
        )

    # ------------------------------------------------------------------
    # maintained global scores + incremental updates
    # ------------------------------------------------------------------
    def global_scores(self) -> np.ndarray:
        """Maintained uniform-teleport PageRank of the current graph.

        Computed once (delta-converged from the uniform start) and then
        maintained incrementally by :meth:`apply_updates` — never
        recomputed from scratch.
        """
        if self._global_scores is None:
            result = pagerank_delta(
                self.graph,
                damping=self.config.damping,
                tolerance=self.config.tolerance,
            )
            self._global_scores = result.scores
        return self._global_scores

    async def apply_updates(self, updates: Sequence[EdgeUpdate]) -> UpdateReport:
        """Apply an edge-update batch; invalidate exactly; maintain scores.

        Runs under the dispatcher's lock, so updates never interleave
        with an in-flight batch: queries enqueued before the update see
        the old graph's answers, queries after see the new graph's.
        """
        async with self._maintenance:
            old_graph, old_fp = self.graph, self.graph_fp
            new_graph, report = apply_edge_updates(old_graph, updates)
            new_fp = stable_digest(new_graph)
            carried = invalidated = 0
            if self.cache is not None and new_fp != old_fp:
                if report.grew:
                    dirty = None  # grown graph: no entry is provably safe
                else:
                    dirty = dirty_ancestors(
                        old_graph, new_graph, report.changed_sources
                    )
                params = self.config.solver_params()
                for fingerprint, seeds in self.cache.entries().items():
                    if dirty is not None and not any(dirty[s] for s in seeds):
                        scores = self.cache.get(fingerprint)
                        if scores is not None:
                            self.cache.put(
                                serve_fingerprint(new_fp, seeds, params),
                                seeds,
                                scores,
                            )
                            carried += 1
                    else:
                        invalidated += 1
                    self.cache.drop(fingerprint)
            if self._global_scores is not None and new_fp != old_fp:
                refreshed, pending = update_residual(
                    new_graph, self._global_scores, damping=self.config.damping
                )
                delta = delta_repropagate(
                    new_graph,
                    refreshed,
                    pending,
                    damping=self.config.damping,
                    tolerance=self.config.tolerance,
                )
                self._global_scores = delta.scores
            self.graph, self.graph_fp = new_graph, new_fp
            self._counters["updates_applied"] += 1
            self._counters["entries_carried"] += carried
            self._counters["entries_invalidated"] += invalidated
            _events.emit(
                "serve_graph_updated",
                added=report.added,
                removed=report.removed,
                carried=carried,
                invalidated=invalidated,
                grew=report.grew,
            )
            return report

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def stats(self) -> ServeStats:
        c = self._counters
        total_lookups = c["cache_hits"] + c["cache_misses"]
        return ServeStats(
            requests=c["requests"],
            batches=c["batches"],
            coalesced=c["coalesced"],
            mean_occupancy=(c["occupancy_sum"] / c["batches"]) if c["batches"] else 0.0,
            cache_hits=c["cache_hits"],
            cache_misses=c["cache_misses"],
            cache_hit_rate=(c["cache_hits"] / total_lookups) if total_lookups else 0.0,
            faults_injected=c["faults_injected"],
            retries=c["retries"],
            updates_applied=c["updates_applied"],
            entries_carried=c["entries_carried"],
            entries_invalidated=c["entries_invalidated"],
        )
