"""Sharded content-addressed cache of served personalized-PageRank results.

Keys are :func:`serve_fingerprint` digests over ``(graph fingerprint,
canonical seed set, solver params)`` — the same
:func:`repro.utils.fingerprint.stable_digest` addressing the measurement
cache uses, so a served result is identified by *content*, never by
request order or process identity.  Two consequences do the heavy
lifting:

* a repeated query (same graph, same seeds, same params) is a pure disk
  hit — the kernel never runs;
* after a graph update the graph fingerprint changes, so every stale
  entry misses *by construction*; the server then either carries forward
  entries whose seeds provably cannot observe the change
  (:func:`repro.serve.updates.dirty_ancestors`) or drops them.

Storage reuses the :class:`repro.harness.cache.MeasurementCache` on-disk
layout (``objects/<fp[:2]>/<fp>.json``, atomic writes,
corruption-tolerant reads) — one cache directory per shard, sharded by a
prefix of the fingerprint so concurrent servers spread directory churn.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.harness.cache import MeasurementCache
from repro.utils.fingerprint import stable_digest

__all__ = ["canonical_seeds", "serve_fingerprint", "ServeCache"]


def canonical_seeds(seeds: Iterable[int], num_vertices: int | None = None) -> tuple[int, ...]:
    """Normalize a seed set to its canonical form: sorted, distinct ints.

    Every layer (fingerprinting, batch dedup, the kernel's
    :func:`repro.kernels.personalized.restart_teleport`) keys on this
    form, so ``{3, 1}``, ``[1, 3]`` and ``(3, 1)`` are the same query.
    """
    out = []
    for seed in seeds:
        index = int(seed)
        if index != seed:
            raise ValueError(f"seed ids must be integers, got {seed!r}")
        if index < 0:
            raise ValueError(f"seed ids must be >= 0, got {index}")
        if num_vertices is not None and index >= num_vertices:
            raise ValueError(
                f"seed {index} out of range for {num_vertices} vertices"
            )
        out.append(index)
    if not out:
        raise ValueError("seed set must be non-empty")
    canonical = tuple(sorted(set(out)))
    if len(canonical) != len(out):
        raise ValueError("seeds must be distinct")
    return canonical


def serve_fingerprint(
    graph_fingerprint: str, seeds: Sequence[int], params: dict[str, Any]
) -> str:
    """Content key of one personalized-PageRank query.

    ``params`` is the solver configuration that affects the *scores*
    (method, damping, tolerance, max_iterations — not the kernel tier,
    which is bit-identical by contract and must not fragment the cache).
    """
    return stable_digest(
        ("ppr", graph_fingerprint, tuple(canonical_seeds(seeds)), dict(params))
    )


class ServeCache:
    """Sharded on-disk result cache for the serve tier.

    Entries map a serve fingerprint to ``{"seeds": [...], "scores":
    float32 array}``.  An in-memory ``fingerprint -> seeds`` index over
    everything this process stored supports the carry-forward scan after
    a graph update (enumerating entries is otherwise an on-disk walk).
    """

    def __init__(self, directory: str, *, shards: int = 4) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.directory = directory
        self.shards = shards
        self._shards = [
            MeasurementCache(os.path.join(directory, f"shard-{i:02d}"))
            for i in range(shards)
        ]
        self._seeds_by_fp: dict[str, tuple[int, ...]] = {}
        self.hits = 0
        self.misses = 0

    def _shard(self, fingerprint: str) -> MeasurementCache:
        return self._shards[int(fingerprint[:8], 16) % self.shards]

    def get(self, fingerprint: str) -> np.ndarray | None:
        """Cached scores for ``fingerprint``, or ``None`` on a miss."""
        entry = self._shard(fingerprint).get(fingerprint)
        if entry is None or not isinstance(entry.result, dict):
            self.misses += 1
            return None
        scores = entry.result.get("scores")
        if not isinstance(scores, np.ndarray):
            self.misses += 1
            return None
        self.hits += 1
        self._seeds_by_fp.setdefault(
            fingerprint, tuple(int(s) for s in entry.result.get("seeds", ()))
        )
        return scores

    def put(
        self,
        fingerprint: str,
        seeds: Sequence[int],
        scores: np.ndarray,
        seconds: float = 0.0,
    ) -> None:
        seeds = canonical_seeds(seeds)
        self._shard(fingerprint).put(
            fingerprint,
            {"seeds": list(seeds), "scores": np.asarray(scores, dtype=np.float32)},
            seconds,
        )
        self._seeds_by_fp[fingerprint] = seeds

    def has(self, fingerprint: str) -> bool:
        return self._shard(fingerprint).has(fingerprint)

    def drop(self, fingerprint: str) -> bool:
        """Invalidate one entry; returns whether it existed on disk."""
        self._seeds_by_fp.pop(fingerprint, None)
        return self._shard(fingerprint).drop(fingerprint)

    def entries(self) -> dict[str, tuple[int, ...]]:
        """Snapshot of the in-memory ``fingerprint -> seeds`` index."""
        return dict(self._seeds_by_fp)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)
