"""Executor protocol: *how* a plan's cells run, as a pluggable seam.

:func:`repro.plan.executor.execute_plan` owns the plan-level concerns —
cache partition, stats accounting, result fan-out — and delegates the
actual running of the cache-miss cells to an :class:`Executor`.  Two
implementations exist:

* :class:`LocalExecutor` — the historical in-process path: one resilient
  :func:`repro.parallel.sweep.run_cells` sweep (process pools, retries,
  timeouts, fault injection), with every cell carrying its graph by
  value and every completed result written into the cache as it
  finishes.  This is the default and is bit-identical to the
  pre-protocol inline code: fingerprints, caches, events, and artifacts
  are unchanged.
* :class:`repro.cluster.DistributedExecutor` — a socket-based worker
  fleet (coordinator leases cells by fingerprint, workers write results
  through the shared :class:`repro.harness.cache.MeasurementCache`),
  registered lazily under the name ``"distributed"``.

The seam is deliberately narrow: an executor receives one
:class:`ExecutionRequest` — the miss cells in submission order plus the
sweep stack's knobs — and must return ``{cell.key: result}`` with the
same semantics :func:`~repro.parallel.sweep.run_cells` guarantees
(submission-order folding, :class:`~repro.parallel.resilience.
CellFailedError` raised only after every other cell had its chance).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.parallel.resilience import SweepStats
from repro.parallel.sweep import SweepCell, run_cells

__all__ = [
    "ExecutionRequest",
    "Executor",
    "LocalExecutor",
    "EXECUTORS",
    "make_executor",
]


@dataclass
class ExecutionRequest:
    """Everything an executor needs to run one plan's miss cells.

    ``cells`` are in submission order; the returned dict must fold by
    that order (last duplicate key wins), exactly like
    :func:`repro.parallel.sweep.run_cells`.

    ``cache`` is the plan's content-addressed result store (or ``None``)
    and ``result_fingerprints`` maps each cell's *sweep* fingerprint
    (function + key + args) to the *content* fingerprint (function +
    args) its result is cached under.  The local path writes results in
    the parent through :meth:`record`; a distributed executor hands both
    to remote workers, which write results straight into the shared
    cache directory.
    """

    cells: list[SweepCell]
    label: str = "plan"
    workers: int | None = None
    policy: Any = None
    fault_plan: Any = None
    stats: SweepStats | None = None
    cache: Any = None
    result_fingerprints: dict[str, str] = field(default_factory=dict)

    def record(self, fingerprint: str, result: Any, seconds: float) -> None:
        """Write one completed cell into :attr:`cache` (no-op without one)."""
        if self.cache is not None:
            self.cache.put(
                self.result_fingerprints.get(fingerprint, fingerprint), result, seconds
            )


class Executor(ABC):
    """One way of running sweep cells.  Stateless across plans."""

    #: Registry name (``repro-pb``'s ``--executor`` vocabulary).
    name = "abstract"

    @abstractmethod
    def run(self, request: ExecutionRequest) -> dict[Any, Any]:
        """Run every cell of ``request`` and return ``{cell.key: result}``.

        Must raise :class:`repro.parallel.resilience.CellFailedError`
        when a cell exhausts its retries — after letting every other
        cell finish (whatever completed must already be in the cache).
        """


class LocalExecutor(Executor):
    """The in-process pool path, extracted verbatim from ``execute_plan``.

    The cells run through one :func:`repro.parallel.sweep.run_cells`
    call, inheriting the whole resilience stack; pooled cells carry
    their graphs by value through the pool's pickle pipe.
    """

    name = "local"

    def run(self, request: ExecutionRequest) -> dict[Any, Any]:
        return run_cells(
            request.cells,
            workers=request.workers,
            label=request.label,
            policy=request.policy,
            fault_plan=request.fault_plan,
            record=request.record,
            stats=request.stats,
        )


def _make_distributed(**kwargs: Any) -> Executor:
    from repro.cluster import DistributedExecutor

    return DistributedExecutor(**kwargs)


#: Executor factories by registry name.  ``"distributed"`` imports the
#: cluster package lazily so the plan layer stays import-light.
EXECUTORS: dict[str, Callable[..., Executor]] = {
    "local": LocalExecutor,
    "distributed": _make_distributed,
}


def make_executor(name: str, **kwargs: Any) -> Executor:
    """Instantiate a registered executor by name."""
    try:
        factory = EXECUTORS[name]
    except KeyError:
        known = ", ".join(sorted(EXECUTORS))
        raise ValueError(f"unknown executor {name!r} (known: {known})") from None
    return factory(**kwargs)
