"""Work scheduling for parallel graph kernels (paper Section VII).

Two schedulers mirror the paper's choices:

* :func:`edge_balanced_ranges` — the *static* schedule for the binning
  phase.  Splitting vertices evenly is wrong on skewed graphs (one thread
  could receive all of a hub's edges); splitting by *edge count* bounds
  each thread's propagations.  Implemented as a binary search over the CSR
  offsets, so it costs O(T log n).
* :func:`greedy_assign` — the *dynamic* schedule for the accumulate phase,
  modelled offline as greedy longest-processing-time assignment of
  per-range costs to threads (what a dynamic work queue converges to).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.utils.validation import check_positive

__all__ = [
    "edge_balanced_ranges",
    "range_edge_counts",
    "greedy_assign",
    "imbalance",
]


def edge_balanced_ranges(graph: CSRGraph, num_threads: int) -> list[tuple[int, int]]:
    """Split vertices into ``num_threads`` contiguous ranges of ~equal edges.

    Range boundaries are found by binary-searching the CSR offsets for the
    ideal per-thread edge quota.  Every vertex appears in exactly one
    range; ranges are contiguous and ordered.  Degenerate cases (more
    threads than vertices, empty graph) produce empty trailing ranges.
    """
    check_positive("num_threads", num_threads)
    n = graph.num_vertices
    m = graph.num_edges
    offsets = graph.offsets
    boundaries = [0]
    for t in range(1, num_threads):
        target = m * t / num_threads
        cut = int(np.searchsorted(offsets, target, side="left"))
        cut = min(max(cut, boundaries[-1]), n)
        boundaries.append(cut)
    boundaries.append(n)
    return [(boundaries[i], boundaries[i + 1]) for i in range(num_threads)]


def range_edge_counts(graph: CSRGraph, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Edges owned by each vertex range."""
    offsets = graph.offsets
    return np.array(
        [int(offsets[stop] - offsets[start]) for start, stop in ranges], dtype=np.int64
    )


def greedy_assign(costs: np.ndarray, num_threads: int) -> tuple[list[list[int]], float]:
    """Longest-processing-time greedy assignment of tasks to threads.

    Returns ``(assignment, makespan)`` where ``assignment[t]`` lists the
    task indices given to thread ``t`` and ``makespan`` is the largest
    per-thread total cost.  This is the classic 4/3-approximation and a
    faithful offline model of a dynamic work queue with decreasing-size
    pulls (the accumulate-phase scheduling).
    """
    check_positive("num_threads", num_threads)
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise ValueError("costs must be 1-D")
    assignment: list[list[int]] = [[] for _ in range(num_threads)]
    heap = [(0.0, t) for t in range(num_threads)]
    heapq.heapify(heap)
    for task in np.argsort(-costs, kind="stable"):
        load, t = heapq.heappop(heap)
        assignment[t].append(int(task))
        heapq.heappush(heap, (load + float(costs[task]), t))
    makespan = max(load for load, _ in heap)
    return assignment, makespan


def imbalance(costs: np.ndarray, num_threads: int, *, dynamic: bool = True) -> float:
    """Load imbalance ``makespan / ideal`` for a task-cost vector.

    ``dynamic=True`` uses :func:`greedy_assign`; ``dynamic=False`` models
    a naive static round-robin (tasks dealt in index order) — the contrast
    the paper's scheduling choices are about.
    """
    check_positive("num_threads", num_threads)
    costs = np.asarray(costs, dtype=np.float64)
    total = float(costs.sum())
    if total == 0.0:
        return 1.0
    ideal = total / num_threads
    if dynamic:
        _, makespan = greedy_assign(costs, num_threads)
    else:
        loads = np.zeros(num_threads)
        for i, cost in enumerate(costs):
            loads[i % num_threads] += cost
        makespan = float(loads.max())
    return makespan / ideal
