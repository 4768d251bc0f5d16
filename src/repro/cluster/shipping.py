"""Ship each graph to each worker at most once (wire-level blocking).

A sweep's cells overwhelmingly share a handful of graphs; pickling the
same multi-MB CSR arrays into every lease frame would re-pay the
communication cost the paper is about eliminating.  Leases therefore
carry :class:`GraphTicket` placeholders for graph arguments the worker
already holds, plus a ``graphs`` side-table for the (at most one-per-
graph-per-worker) first shipment.

Tickets are keyed by :func:`graph_key`, so "same graph" means the same
parent-side object — exactly the sharing a compiled plan produces.
Substitution happens *after* fingerprinting on both sides
(the coordinator fingerprints original cells, the worker receives the
fingerprint in the lease), so tickets never touch cell identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Hashable

from repro.graphs.csr import CSRGraph

__all__ = ["GraphTicket", "strip_cell", "resolve_cell"]


def graph_key(graph: CSRGraph) -> Hashable:
    """Ticket key of a graph argument: the parent-side object identity.

    By identity, not content digest: hashing a multi-MB graph per cell
    would cost more than deduplicating shipments buys, and plan-compiled
    sweeps pass the same object for equal content anyway.
    """
    return ("mem", id(graph))


@dataclass(frozen=True)
class GraphTicket:
    """Placeholder for a graph argument resident on the worker."""

    key: Hashable


def strip_cell(cell, shipped: set) -> tuple[Any, dict[Hashable, CSRGraph]]:
    """Replace ``cell``'s graph arguments with tickets for one worker.

    ``shipped`` is the per-worker set of graph keys already sent; graphs
    not yet in it are returned in the side-table (and added), so the
    caller ships them alongside the lease exactly once.
    """
    blobs: dict[Hashable, CSRGraph] = {}

    def swap(value: Any) -> Any:
        if isinstance(value, CSRGraph):
            key = graph_key(value)
            if key not in shipped:
                shipped.add(key)
                blobs[key] = value
            return GraphTicket(key)
        return value

    args = tuple(swap(value) for value in cell.args)
    kwargs = {name: swap(value) for name, value in cell.kwargs.items()}
    if args == cell.args and kwargs == cell.kwargs:
        return cell, blobs
    return replace(cell, args=args, kwargs=kwargs), blobs


def resolve_cell(cell, resident: dict[Hashable, CSRGraph]):
    """Swap tickets back for graphs from the worker's resident store."""

    def swap(value: Any) -> Any:
        if isinstance(value, GraphTicket):
            try:
                return resident[value.key]
            except KeyError:
                raise RuntimeError(
                    f"lease references unshipped graph {value.key!r}"
                ) from None
        return value

    args = tuple(swap(value) for value in cell.args)
    kwargs = {name: swap(value) for name, value in cell.kwargs.items()}
    if args == cell.args and kwargs == cell.kwargs:
        return cell
    return replace(cell, args=args, kwargs=kwargs)
