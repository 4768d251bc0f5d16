"""Property tests: cache invalidation under edge-update sequences.

The serve cache's safety claim is absolute: after *any* sequence of
edge updates, a served answer equals what a cold server on the updated
graph would compute — bit for bit.  Entries carried forward across an
update (seeds provably outside the dirty frontier) must be exact, and
stale entries must never survive.  Hypothesis drives randomized update
sequences against both the structural rule
(:func:`repro.serve.updates.dirty_ancestors`) and the full server loop.
"""

import asyncio
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import build_csr, uniform_random_graph
from repro.kernels import pagerank_delta, personalized_pagerank, restart_teleport
from repro.serve import (
    BatchPolicy,
    EdgeUpdate,
    PPRServer,
    ServeCache,
    ServeConfig,
    apply_edge_updates,
    dirty_ancestors,
    update_residual,
)
from repro.kernels.delta import delta_repropagate
from repro.utils.fingerprint import stable_digest

N = 48  # small world: reachability frontiers stay non-trivial


def base_graph(seed: int):
    return build_csr(uniform_random_graph(N, 3, seed=seed, symmetric=False))


updates_strategy = st.lists(
    st.builds(
        EdgeUpdate,
        src=st.integers(min_value=0, max_value=N - 1),
        dst=st.integers(min_value=0, max_value=N - 1),
        remove=st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


# ----------------------------------------------------------------------
# apply_edge_updates: deterministic, reversible rebuilds
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 50), updates=updates_strategy)
@settings(max_examples=60, deadline=None)
def test_empty_update_batch_is_identity(seed, updates):
    graph, _ = apply_edge_updates(base_graph(seed), updates)
    again, report = apply_edge_updates(graph, [])
    assert report.added == report.removed == 0
    assert stable_digest(again) == stable_digest(graph)


@given(
    seed=st.integers(0, 50),
    src=st.integers(0, N - 1),
    dst=st.integers(0, N - 1),
)
@settings(max_examples=60, deadline=None)
def test_add_then_remove_round_trips(seed, src, dst):
    graph = base_graph(seed)
    added, report = apply_edge_updates(graph, [EdgeUpdate(src, dst)])
    removed, _ = apply_edge_updates(added, [EdgeUpdate(src, dst, remove=True)])
    if report.added:  # edge was genuinely new: removal restores the graph
        assert stable_digest(removed) == stable_digest(graph)
    else:  # edge already existed: the add was a no-op
        assert report.noops == 1
        assert stable_digest(added) == stable_digest(graph)


def test_updates_can_grow_the_vertex_range():
    graph = base_graph(0)
    grown, report = apply_edge_updates(graph, [EdgeUpdate(2, N + 3)])
    assert report.grew
    assert grown.num_vertices == N + 4
    assert N + 3 in set(grown.neighbors(2).tolist())


def test_weighted_graphs_are_rejected():
    import numpy as np

    from repro.graphs.csr import CSRGraph

    graph = CSRGraph(
        np.array([0, 1]), np.array([0]), weights=np.array([1.0], dtype=np.float32)
    )
    with pytest.raises(ValueError, match="weighted"):
        apply_edge_updates(graph, [])


# ----------------------------------------------------------------------
# dirty_ancestors: the structural carry-forward rule is sound
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 30), updates=updates_strategy)
@settings(max_examples=40, deadline=None)
def test_clean_seeds_keep_bit_identical_scores(seed, updates):
    """Any seed outside the dirty frontier solves identically pre/post."""
    old = base_graph(seed)
    new, report = apply_edge_updates(old, updates)
    dirty = dirty_ancestors(old, new, report.changed_sources)
    clean = np.flatnonzero(~dirty)[:6]
    for vertex in clean:
        before = personalized_pagerank(old, restart_teleport(N, [int(vertex)]))
        after = personalized_pagerank(new, restart_teleport(N, [int(vertex)]))
        assert np.array_equal(before.scores, after.scores)


def test_changed_sources_are_always_dirty():
    old = base_graph(1)
    new, report = apply_edge_updates(old, [EdgeUpdate(5, 7, remove=True), EdgeUpdate(5, 9)])
    if report.changed_sources:
        dirty = dirty_ancestors(old, new, report.changed_sources)
        assert all(dirty[s] for s in report.changed_sources)


# ----------------------------------------------------------------------
# the full serve loop: served top-k == cold recompute, always
# ----------------------------------------------------------------------
def _cold_answers(graph, seed_sets, config):
    """Reference: a fresh cache-less server on the given graph."""

    async def scenario():
        async with PPRServer(graph, config) as server:
            return await asyncio.gather(
                *(server.query(list(s)) for s in seed_sets)
            )

    return asyncio.run(scenario())


@given(
    seed=st.integers(0, 20),
    updates=updates_strategy,
    query_seed=st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None)
def test_served_equals_cold_recompute_after_updates(seed, updates, query_seed):
    """For any update sequence: warm server == cold server, bit for bit.

    A stale entry surviving its dirty frontier, or an inexact
    carry-forward, would make some warm answer differ from the cold
    one — this property rules both out.
    """
    graph = base_graph(seed)
    config = ServeConfig(policy=BatchPolicy(window_seconds=0.0, max_batch=4))
    rng = np.random.default_rng(query_seed)
    seed_sets = [
        tuple(
            sorted(
                int(v)
                for v in rng.choice(N, size=int(rng.integers(1, 4)), replace=False)
            )
        )
        for _ in range(5)
    ]

    async def scenario(cache):
        async with PPRServer(graph, config, cache=cache) as server:
            old_fp = server.graph_fp
            await asyncio.gather(*(server.query(list(s)) for s in seed_sets))
            report = await server.apply_updates(updates)
            changed = server.graph_fp != old_fp
            warm = await asyncio.gather(
                *(server.query(list(s)) for s in seed_sets)
            )
            return warm, report, changed, server.graph, server.stats()

    with tempfile.TemporaryDirectory() as directory:
        warm, report, changed, new_graph, stats = asyncio.run(
            scenario(ServeCache(directory, shards=2))
        )
    cold = _cold_answers(new_graph, seed_sets, config)
    for warm_result, cold_result in zip(warm, cold):
        assert np.array_equal(warm_result.scores, cold_result.scores)
        assert warm_result.top == cold_result.top
    if changed:
        # Invalidation accounting covers every pre-update entry.
        assert stats.entries_carried + stats.entries_invalidated == len(
            set(seed_sets)
        )
    else:
        # All-no-op batch: the fingerprint is unchanged, entries simply
        # stay valid — nothing to carry or drop.
        assert stats.entries_carried == stats.entries_invalidated == 0


def test_carried_entries_hit_without_recompute():
    """Seeds provably outside the dirty frontier stay warm across updates."""
    graph = base_graph(2)
    config = ServeConfig(policy=BatchPolicy(window_seconds=0.0, max_batch=4))

    async def scenario(cache):
        async with PPRServer(graph, config, cache=cache) as server:
            await asyncio.gather(
                *(server.query([v]) for v in range(N))
            )
            report = await server.apply_updates([EdgeUpdate(0, 1)])
            dirty = dirty_ancestors(
                server.graph, server.graph, report.changed_sources
            )
            results = await asyncio.gather(
                *(server.query([v]) for v in range(N))
            )
            return results, dirty, server.stats()

    with tempfile.TemporaryDirectory() as directory:
        results, dirty, stats = asyncio.run(scenario(ServeCache(directory)))
    for vertex, result in enumerate(results):
        if not dirty[vertex]:
            assert result.from_cache, f"clean seed {vertex} missed the cache"
        else:
            assert not result.from_cache, f"dirty seed {vertex} hit stale cache"
    assert stats.entries_carried == int((~dirty).sum())
    assert stats.entries_invalidated == int(dirty.sum())


def test_grown_graph_invalidates_everything():
    graph = base_graph(3)
    config = ServeConfig(policy=BatchPolicy(window_seconds=0.0, max_batch=4))

    async def scenario(cache):
        async with PPRServer(graph, config, cache=cache) as server:
            await asyncio.gather(*(server.query([v]) for v in range(8)))
            await server.apply_updates([EdgeUpdate(0, N + 1)])
            results = await asyncio.gather(
                *(server.query([v]) for v in range(8))
            )
            return results, server.stats()

    with tempfile.TemporaryDirectory() as directory:
        results, stats = asyncio.run(scenario(ServeCache(directory)))
    assert all(not r.from_cache for r in results)
    assert stats.entries_carried == 0
    assert stats.entries_invalidated == 8


# ----------------------------------------------------------------------
# maintained global scores track the scratch fixed point
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 20), updates=updates_strategy)
@settings(max_examples=25, deadline=None)
def test_delta_maintained_globals_match_scratch(seed, updates):
    old = base_graph(seed)
    new, _ = apply_edge_updates(old, updates)
    tolerance = 1e-9
    baseline = pagerank_delta(old, tolerance=tolerance).scores
    refreshed, pending = update_residual(new, baseline)
    maintained = delta_repropagate(
        new, refreshed, pending, tolerance=tolerance
    ).scores
    scratch = pagerank_delta(new, tolerance=tolerance).scores
    drift = np.abs(
        maintained.astype(np.float64) - scratch.astype(np.float64)
    ).max()
    assert drift < 50 * tolerance
