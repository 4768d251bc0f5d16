"""How a plan's cache-miss cells run: :class:`LocalExecutor`.

:func:`repro.plan.executor.execute_plan` owns the plan-level concerns —
cache partition, stats accounting, result fan-out — and hands the
actual running of the cache-miss cells to :class:`LocalExecutor`: one
resilient :func:`repro.parallel.sweep.run_cells` sweep (serial
in-process, or leased to local worker processes for ``workers >= 2``;
retries, deadlines, fault injection), with every completed result
written into the cache by the process that computed it.  Fingerprints,
caches, events, and artifacts are the same for every worker count.

The seam is deliberately narrow: the executor receives one
:class:`ExecutionRequest` — the miss cells in submission order plus the
sweep stack's knobs — and returns ``{cell.key: result}`` with the
semantics :func:`~repro.parallel.sweep.run_cells` guarantees
(submission-order folding, :class:`~repro.parallel.resilience.
CellFailedError` raised only after every other cell had its chance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.parallel.resilience import DEFAULT_BIND, DEFAULT_LEASE_SECONDS, SweepStats
from repro.parallel.sweep import SweepCell, run_cells

__all__ = ["ExecutionRequest", "LocalExecutor"]


@dataclass
class ExecutionRequest:
    """Everything the executor needs to run one plan's miss cells.

    ``cells`` are in submission order; the returned dict folds by that
    order (last duplicate key wins), exactly like
    :func:`repro.parallel.sweep.run_cells`.

    ``cache`` is the plan's content-addressed result store (or ``None``)
    and ``result_fingerprints`` maps each cell's *sweep* fingerprint
    (function + key + args) to the *content* fingerprint (function +
    args) its result is cached under.  ``bind``/``lease_seconds`` set
    the coordinator of a pooled run.
    """

    cells: list[SweepCell]
    label: str = "plan"
    workers: int | None = None
    policy: Any = None
    fault_plan: Any = None
    stats: SweepStats | None = None
    cache: Any = None
    result_fingerprints: dict[str, str] = field(default_factory=dict)
    bind: tuple[str, int] = DEFAULT_BIND
    lease_seconds: float = DEFAULT_LEASE_SECONDS


class LocalExecutor:
    """Run a plan's miss cells through one :func:`run_cells` sweep."""

    def run(self, request: ExecutionRequest) -> dict[Any, Any]:
        """Run every cell of ``request`` and return ``{cell.key: result}``.

        Raises :class:`repro.parallel.resilience.CellFailedError` when a
        cell exhausts its retries — after letting every other cell
        finish (whatever completed is already in the cache).
        """
        return run_cells(
            request.cells,
            workers=request.workers,
            label=request.label,
            policy=request.policy,
            fault_plan=request.fault_plan,
            stats=request.stats,
            cache=request.cache,
            result_fingerprints=request.result_fingerprints,
            bind=request.bind,
            lease_seconds=request.lease_seconds,
        )
