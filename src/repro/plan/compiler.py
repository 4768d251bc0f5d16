"""Plan compiler: merge experiment specs into one deduplicated cell DAG.

:func:`compile_plan` walks every spec's requested cells, fingerprints
each by content, and keeps exactly one :class:`~repro.plan.spec.Cell`
per fingerprint.  The resulting :class:`CompiledPlan` records, for every
spec, which fingerprint satisfies each of its local keys — so after a
single execution every artifact can be assembled from the shared result
pool.  Compilation performs no simulation; it is cheap enough for the
``repro-pb plan`` subcommand to run it purely for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.plan.spec import Cell, ExperimentSpec

__all__ = ["PlanStats", "CompiledPlan", "compile_plan"]


@dataclass
class PlanStats:
    """Counters describing one compiled (and possibly executed) plan.

    ``as_dict()`` is the ``plan`` section of a run report
    (``docs/metrics_schema.md``).  ``cache_hits`` / ``executed`` stay
    zero until :func:`repro.plan.executor.execute_plan` fills them in.
    """

    cells_requested: int = 0
    cells_unique: int = 0
    cache_hits: int = 0
    executed: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Requested over unique cells; > 1.0 means sharing paid off."""
        if self.cells_unique == 0:
            return 1.0
        return self.cells_requested / self.cells_unique

    def as_dict(self) -> dict[str, Any]:
        return {
            "cells_requested": self.cells_requested,
            "cells_unique": self.cells_unique,
            "cache_hits": self.cache_hits,
            # Always 0: resumed cells are cache hits.  Kept only because
            # the e2e benchmark sums executed + cache_hits + resumed.
            "resumed": 0,
            "executed": self.executed,
            "dedup_ratio": self.dedup_ratio,
        }


@dataclass
class CompiledPlan:
    """The deduplicated cell DAG behind a set of experiment specs.

    ``cells`` maps fingerprint to the unique cell (insertion order =
    first request order, which execution preserves); ``requests`` maps
    each spec name to its ``{local_key: fingerprint}`` resolution table;
    ``labels`` gives every unique cell a readable ``"spec:local_key"``
    name taken from its *first* requester (used as the sweep key, so
    span paths and events stay human-readable).
    """

    specs: tuple[ExperimentSpec, ...]
    cells: dict[str, Cell]
    requests: dict[str, dict[Any, str]]
    labels: dict[str, str]
    stats: PlanStats = field(default_factory=PlanStats)

    @property
    def cells_requested(self) -> int:
        return self.stats.cells_requested

    @property
    def cells_unique(self) -> int:
        return self.stats.cells_unique

    @property
    def dedup_ratio(self) -> float:
        return self.stats.dedup_ratio

    def spec(self, name: str) -> ExperimentSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(f"no spec named {name!r} in this plan")

    def summary_rows(self) -> list[list[Any]]:
        """Per-spec DAG summary: requested / owned / shared cell counts.

        A cell is *owned* by the spec that requested it first and
        *shared* for every later requester — so the owned column sums to
        ``cells_unique`` and requested sums to ``cells_requested``.
        """
        rows = []
        for spec in self.specs:
            fingerprints = self.requests[spec.name].values()
            owned = sum(
                1
                for fp in fingerprints
                if self.labels[fp].split(":", 1)[0] == spec.name
            )
            rows.append([spec.name, len(self.requests[spec.name]), owned,
                         len(self.requests[spec.name]) - owned])
        return rows


def compile_plan(specs: Iterable[ExperimentSpec]) -> CompiledPlan:
    """Merge ``specs`` into one deduplicated :class:`CompiledPlan`.

    Duplicate spec names are an error (the fan-out would be ambiguous);
    duplicate *cells* are the entire point and are merged silently.
    """
    specs = tuple(specs)
    seen_names: set[str] = set()
    cells: dict[str, Cell] = {}
    requests: dict[str, dict[Any, str]] = {}
    labels: dict[str, str] = {}
    requested = 0
    for spec in specs:
        if spec.name in seen_names:
            raise ValueError(f"duplicate spec name {spec.name!r} in plan")
        seen_names.add(spec.name)
        resolution: dict[Any, str] = {}
        for local_key, cell in spec.cells.items():
            fingerprint = cell.fingerprint()
            requested += 1
            if fingerprint not in cells:
                cells[fingerprint] = cell
                labels[fingerprint] = f"{spec.name}:{local_key}"
            resolution[local_key] = fingerprint
        requests[spec.name] = resolution
    stats = PlanStats(cells_requested=requested, cells_unique=len(cells))
    return CompiledPlan(
        specs=specs, cells=cells, requests=requests, labels=labels, stats=stats
    )
