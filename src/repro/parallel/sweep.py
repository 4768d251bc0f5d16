"""Process-parallel sweep executor for independent simulation cells.

Figure sweeps (7, 8, 9/10) and the suite measurements behind figures 4-6
are embarrassingly parallel: every (graph, kernel, config) cell is an
independent simulation sharing no mutable state.  :func:`run_cells` runs
a list of :class:`SweepCell` specs either serially in-process or, with
``workers >= 2``, on local worker processes leased cells by the fleet
coordinator (:mod:`repro.cluster`), and returns results keyed by cell,
preserving the exact values a serial run produces (same seeds, same
arithmetic — the parallelism is across cells, never inside one).

Cells must be *picklable*: the callable has to be a module-level function
and the arguments plain data (CSR graphs and machine specs are dataclasses
of arrays and scalars, so they ship fine; each graph ships to each worker
at most once).  Worker processes report their cell times back, and the
parent folds them into the active :class:`~repro.obs.spans.SpanRecorder`
as ``sweep[label]/cell[key]`` — so ``--workers 8`` still yields a
complete per-cell timing breakdown in run reports.

Execution is fault tolerant (see :mod:`repro.parallel.resilience`): a
failing cell is retried under the :class:`~repro.parallel.resilience.
RetryPolicy`, each completed result is written to the optional
``cache`` by the process that computed it, worker death degrades to
in-process serial execution, and deterministic faults can be injected
for testing (``REPRO_FAULT_PLAN`` or an explicit
:class:`~repro.parallel.faults.FaultPlan`).  A cell that exhausts its
retries raises :class:`~repro.parallel.resilience.CellFailedError`
naming the cell and chaining the original (worker) traceback — after
letting every other cell finish, never leaving a hung worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.parallel.resilience import (
    DEFAULT_BIND,
    DEFAULT_LEASE_SECONDS,
    RetryPolicy,
    SweepStats,
    default_workers,
    execute_cells,
)
from repro.parallel.faults import FaultPlan

__all__ = ["SweepCell", "run_cells", "default_workers"]


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    Attributes
    ----------
    key:
        Identifies the cell in the result dict and the span path.  Must be
        hashable; tuples like ``("urand", 128)`` read well in reports.
    fn:
        Module-level callable executed in the worker (must be picklable by
        reference, i.e. not a lambda or closure).
    args / kwargs:
        Plain-data arguments forwarded to ``fn``.
    """

    key: Any
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


def run_cells(
    cells: list[SweepCell],
    *,
    workers: int | None = None,
    label: str = "sweep",
    policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    stats: SweepStats | None = None,
    cache=None,
    result_fingerprints: dict[str, str] | None = None,
    bind: tuple[str, int] = DEFAULT_BIND,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
) -> dict[Any, Any]:
    """Run every cell and return ``{cell.key: result}``.

    ``workers=None`` or ``1`` runs serially in-process (no processes, no
    pickling); ``workers=0`` means one worker per usable CPU
    (:func:`default_workers`); ``workers >= 2`` leases the cells to that
    many local worker processes (never more workers than cells).
    Results are identical either way — cells are deterministic functions
    of their arguments — and identical with or without recovered faults.

    ``policy`` defaults to no retries (or to a plan-covering policy when
    a fault plan is active); ``stats`` (a :class:`~repro.parallel.
    resilience.SweepStats`) accumulates retry counters for run reports.
    ``cache`` (a :class:`~repro.harness.cache.MeasurementCache`) receives
    every completed result, under ``result_fingerprints[fp]`` where the
    caller maps a cell's fingerprint (:func:`repro.utils.fingerprint.
    cell_fingerprint`) to a content fingerprint, else under ``fp``.
    ``bind`` is the pooled run's coordinator address, which external
    ``repro-pb worker`` processes can also join when it fixes a port;
    ``lease_seconds`` bounds how long a silent worker holds a cell.
    """
    return execute_cells(
        cells,
        workers=workers,
        label=label,
        policy=policy,
        fault_plan=fault_plan,
        stats=stats,
        cache=cache,
        result_fingerprints=result_fingerprints,
        bind=bind,
        lease_seconds=lease_seconds,
    )
