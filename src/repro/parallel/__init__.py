"""Parallel execution of propagation blocking (paper Section VII).

The paper parallelizes the two phases differently:

* **binning** — static schedule, work assigned "based on the number of
  edges rather than vertices since degrees can vary substantially"; each
  thread gets its own set of bins so no atomics are needed
  (:func:`~repro.parallel.scheduling.edge_balanced_ranges`,
  :class:`~repro.parallel.threaded.ThreadedDPBPageRank`);
* **accumulate** — vertex ranges assigned dynamically; "since only one
  thread processes a vertex range, there is no need for atomics"
  (:func:`~repro.parallel.scheduling.greedy_assign`).

It also notes the cache-capacity consequence: "when increasing the number
of active threads ... it is often best to decrease the bin width since the
additional threads contend for the same cache capacity"
(:func:`~repro.parallel.model.recommended_bin_width`).
"""

from repro.parallel.scheduling import (
    edge_balanced_ranges,
    greedy_assign,
    range_edge_counts,
    imbalance,
)
from repro.parallel.model import (
    recommended_bin_width,
    thread_scaling,
    parallel_time,
)
from repro.parallel.threaded import ThreadedDPBPageRank
from repro.parallel.sweep import SweepCell, run_cells, default_workers
from repro.parallel.faults import (
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultPlan,
    InjectedCrash,
    InjectedTimeout,
)
from repro.parallel.resilience import (
    CellFailedError,
    CellTimeoutError,
    CorruptResultError,
    RetryPolicy,
    SweepOptions,
    SweepStats,
)

__all__ = [
    "SweepCell",
    "run_cells",
    "default_workers",
    "FAULT_PLAN_ENV",
    "FaultInjected",
    "FaultPlan",
    "InjectedCrash",
    "InjectedTimeout",
    "CellFailedError",
    "CellTimeoutError",
    "CorruptResultError",
    "RetryPolicy",
    "SweepOptions",
    "SweepStats",
    "edge_balanced_ranges",
    "greedy_assign",
    "range_edge_counts",
    "imbalance",
    "recommended_bin_width",
    "thread_scaling",
    "parallel_time",
    "ThreadedDPBPageRank",
]
