"""Benchmark-side tracing: wrappers around each layer's public functions.

Nothing under ``src/`` changes.  A traced run rebinds the module and
class attributes that name a layer's public functions to thin wrappers
that time each call, then calls through.  Two recorders exist because
the two user paths need different breakdowns:

* :class:`SpanTracer` (reproduce) keeps a per-thread stack of open spans
  and charges each span its *self* time -- its duration minus the part
  its wrapped children cover -- to a named probe such as
  ``graphs.build``.  Self times partition the root spans, so
  ``sum(self) + unattributed == wall`` holds exactly when every span runs
  on the main thread.
* :class:`ServeProbe` (serve) attributes time to individual requests.
  The load generator tags each request's task with a context variable;
  wrappers running inside that task (the request's own cache lookup,
  its enqueue, its top-k) charge the request, and wrappers running in
  the dispatcher (batch re-check, batch solve, cache write-back) charge
  the batch that every request in it waited for.

A probe whose target no longer exists is skipped and listed in
``missing``; the runner then warns and marks the traced run invalid, so
a refactor of ``src/`` neither crashes the benchmark nor passes for a
faster layer.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import os
import sys
import threading
import time
from typing import Any, Callable

__all__ = ["SpanTracer", "ServeProbe", "REPRODUCE_PROBES"]

_now = time.perf_counter

#: Undo marker for a class attribute that was inherited, not set on the class.
_INHERITED = object()


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.attr"`` -> (owner, name, value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, getattr(owner, name)


class _Patcher:
    """Rebinds attributes to wrappers and restores them afterwards."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        #: Calls per patched target, so a test can see every wrapper fire.
        self.fired: dict[str, int] = {}

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, value)

    def _counting(self, target: str, original: Any, wrapper: Any) -> Any:
        fired = self.fired
        fired[target] = 0

        @functools.wraps(original, updated=())
        def counted(*args, **kwargs):
            fired[target] += 1
            return wrapper(*args, **kwargs)

        return counted

    def patch(self, target: str, make_wrapper: Callable[[Any], Any]) -> None:
        """Replace ``target`` everywhere it is bound under ``repro``.

        Functions are imported by name all over the package
        (``from repro.graphs import build_csr``), so every ``repro.*``
        module attribute bound to the same object is rebound too.  A
        class attribute is patched on the class only.
        """
        try:
            owner, name, original = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        wrapper = self._counting(target, original, make_wrapper(original))
        if isinstance(owner, type):
            self._set(owner, name, wrapper)
            return
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_mapping(self, target: str, make_wrapper: Callable[[Any], Any]) -> None:
        """Wrap every value of the dict at ``target`` in place."""
        try:
            _, _, mapping = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        originals = dict(mapping)
        for key, value in originals.items():
            mapping[key] = self._counting(f"{target}[{key}]", value, make_wrapper(value))
        self._undo.append((mapping, "__restore__", originals))

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if name == "__restore__":
                owner.clear()
                owner.update(value)
            elif value is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


# ----------------------------------------------------------------------
# reproduce: self time per probe
# ----------------------------------------------------------------------

#: (target, probe, counted) for every wrapped reproduce-path function.
#: ``counted=False`` attributes time without counting a call, so
#: ``graphs.build_calls`` counts CSR graphs built, not generator calls.
REPRODUCE_PROBES: tuple[tuple[str, str, bool], ...] = (
    ("repro.graphs.suite:load_graph", "graphs.build", False),
    ("repro.graphs.builder:build_csr", "graphs.build", True),
    *(
        (f"repro.graphs.generators:{name}", "graphs.build", False)
        for name in (
            "uniform_random_graph",
            "kronecker_graph",
            "social_network_graph",
            "community_graph",
            "citation_graph",
            "coauthorship_graph",
            "web_crawl_graph",
        )
    ),
    ("repro.harness.reproduce:plan_specs", "plan.compile", False),
    ("repro.plan.compiler:compile_plan", "plan.compile", False),
    ("repro.plan.executors:LocalExecutor.run", "plan.dispatch", False),
    ("repro.parallel.sweep:run_cells", "plan.dispatch", False),
    ("repro.parallel.resilience:execute_cells", "plan.dispatch", False),
    ("repro.kernels.pagerank:make_kernel", "kernels.make_kernel", True),
    ("repro.harness.experiment:evaluate_drift", "models", True),
    ("repro.models.performance:kernel_time", "models", True),
    ("repro.models.performance:pb_phase_times", "models", True),
    ("repro.memsim.hierarchy:L1Model.analyze", "models", True),
    ("repro.plan.executor:PlanResults.artifact", "harness.render", True),
    ("repro.harness.figures:FigureResult.render", "harness.render", False),
    ("repro.harness.tables:TableResult.render", "harness.render", False),
)


class SpanTracer:
    """Self time and call counts per probe (see the module docstring)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._patcher = _Patcher()
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        #: Summed duration of the main thread's outermost spans.
        self.root_s = 0.0
        #: ``(perf_counter at put, cell seconds)`` per measurement-cache put.
        self.puts: list[tuple[float, float]] = []
        self.plan_calls: list[dict[str, Any]] = []

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing

    @property
    def fired(self) -> dict[str, int]:
        return self._patcher.fired

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, probe: str) -> list[Any]:
        frame = [probe, 0.0, _now()]  # probe, children seconds, start
        self._stack().append(frame)
        return frame

    def exit(self, frame: list[Any], *, count: bool = True) -> None:
        duration = _now() - frame[2]
        stack = self._stack()
        stack.pop()
        probe = frame[0]
        with self._lock:
            self.self_s[probe] = self.self_s.get(probe, 0.0) + duration - frame[1]
            if count:
                self.calls[probe] = self.calls.get(probe, 0) + 1
            if stack:
                stack[-1][1] += duration
            elif threading.get_ident() == self._main:
                self.root_s += duration

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def timed(self, probe: str, *, count: bool = True):
        """Decorator factory: time every call of ``fn`` under ``probe``."""

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = self.enter(probe)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit(frame, count=count)

            return wrapper

        return make

    # -- installation ------------------------------------------------------
    def install(self) -> "SpanTracer":
        """Wrap every reproduce-path layer function until :meth:`uninstall`.

        Forked pool workers drop the wrappers: their spans could not
        reach this process, and materialised traces would change their
        memory use.  Pool-side layers are derived from cache puts instead.
        """
        import repro.harness.reproduce  # noqa: F401 - bind every target module

        os.register_at_fork(after_in_child=self._patcher.restore)
        patch = self._patcher.patch
        for target, probe, counted in REPRODUCE_PROBES:
            patch(target, self.timed(probe, count=counted))
        self._patcher.patch_mapping(
            "repro.kernels.priorwork:PRIOR_WORK", self.timed("kernels.make_kernel")
        )
        patch("repro.memsim.cache:simulate", self._wrap_simulate)
        patch("repro.harness.cache:MeasurementCache.get", self.timed("harness.cache_get"))
        patch("repro.harness.cache:MeasurementCache.put", self._wrap_cache_put)
        patch("repro.plan.executor:execute_plan", self._wrap_execute_plan)
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- special wrappers --------------------------------------------------
    def _wrap_simulate(self, simulate):
        """Materialise the lazy kernel trace first, so generation and
        cache-engine replay are timed apart (they interleave otherwise)."""

        def wrapper(trace, engine, *args, **kwargs):
            frame = self.enter("kernels.trace_gen")
            try:
                chunks = list(trace)
            finally:
                self.exit(frame)
            self.add("kernels.trace_accesses", sum(c.num_accesses for c in chunks))
            counters = kwargs.get("counters")
            before = counters.total_requests if counters is not None else 0
            frame = self.enter("memsim.replay")
            try:
                result = simulate(chunks, engine, *args, **kwargs)
            finally:
                self.exit(frame)
            self.add("memsim.dram_requests", result.total_requests - before)
            return result

        return wrapper

    def _wrap_cache_put(self, put):
        def wrapper(cache, fingerprint, result, seconds, *args, **kwargs):
            frame = self.enter("harness.cache_put")
            try:
                return put(cache, fingerprint, result, seconds, *args, **kwargs)
            finally:
                self.exit(frame)
                with self._lock:
                    self.puts.append((_now(), float(seconds)))
                try:
                    size = os.path.getsize(cache._path(fingerprint))
                except (AttributeError, OSError):
                    size = 0
                self.add("harness.cache_put_bytes", size)

        return wrapper

    def _wrap_execute_plan(self, execute_plan):
        """Record each plan execution's interval and sweep retries."""
        timed = self.timed("plan.dispatch", count=False)(execute_plan)

        def wrapper(plan, *args, **kwargs):
            started = _now()
            results = timed(plan, *args, **kwargs)
            stats = getattr(kwargs.get("options"), "stats", None)
            self.plan_calls.append(
                {"start": started, "end": _now(), "retries": getattr(stats, "retries", 0)}
            )
            return results

        return wrapper


# ----------------------------------------------------------------------
# serve: per-request attribution
# ----------------------------------------------------------------------

#: The request record of the task that is running, or ``None`` in the
#: server's dispatcher task (created before any request existed).
CURRENT_REQUEST: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "e2e_current_request", default=None
)


class ServeProbe:
    """Per-request and per-batch time for one :class:`PPRServer` step.

    Request records are plain dicts created by the load generator; the
    probe fills ``get_s``, ``enqueued``, ``queue_wait_s``, ``batch`` and
    ``topk_s``.  Batch records carry the batch's items, re-check/solve/
    write-back seconds and which fingerprints were served by the
    re-check instead of solved.
    """

    def __init__(self) -> None:
        self._patcher = _Patcher()
        self._by_item: dict[int, dict] = {}
        self.batches: list[dict[str, Any]] = []
        self.get_s: list[float] = []
        self.put_s: list[float] = []
        self.solve_s: list[float] = []

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing

    @property
    def fired(self) -> dict[str, int]:
        return self._patcher.fired

    def _batch(self) -> dict[str, Any] | None:
        return self.batches[-1] if self.batches else None

    def install(self) -> "ServeProbe":
        import repro.serve.server  # noqa: F401 - bind every target module

        patch = self._patcher.patch
        patch("repro.serve.cache:ServeCache.get", self._wrap_get)
        patch("repro.serve.cache:ServeCache.put", self._charge_batch("put_s", self.put_s))
        patch("repro.serve.batching:BatchQueue.put", self._wrap_enqueue)
        patch("repro.serve.batching:BatchQueue.next_batch", self._wrap_next_batch)
        patch(
            "repro.serve.server:multi_personalized_pagerank",
            self._charge_batch("solve_s", self.solve_s),
        )
        patch("repro.serve.server:topk", self._wrap_topk)
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap_get(self, get):
        def wrapper(cache, fingerprint, *args, **kwargs):
            started = _now()
            scores = get(cache, fingerprint, *args, **kwargs)
            seconds = _now() - started
            self.get_s.append(seconds)
            request = CURRENT_REQUEST.get()
            if request is not None:
                request["get_s"] = request.get("get_s", 0.0) + seconds
            elif (batch := self._batch()) is not None:
                batch["recheck_s"] += seconds
                if scores is not None:
                    batch["recheck_hits"].add(fingerprint)
            return scores

        return wrapper

    def _charge_batch(self, field: str, samples: list[float]):
        """Time each call into ``samples`` and charge it to the current batch.

        The dispatcher runs one batch at a time, so the newest batch record
        is the one a write-back or a solve (even on the executor thread)
        belongs to.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                started = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = _now() - started
                    samples.append(seconds)
                    if (batch := self._batch()) is not None:
                        batch[field] += seconds

            return wrapper

        return make

    def _wrap_enqueue(self, enqueue):
        def wrapper(queue, item, *args, **kwargs):
            request = CURRENT_REQUEST.get()
            if request is not None:
                request["enqueued"] = _now()
                self._by_item[id(item)] = request
            return enqueue(queue, item, *args, **kwargs)

        return wrapper

    def _wrap_next_batch(self, next_batch):
        async def wrapper(queue, *args, **kwargs):
            items = await next_batch(queue, *args, **kwargs)
            taken = _now()
            if items:
                batch = {
                    "items": items,
                    "recheck_s": 0.0,
                    "solve_s": 0.0,
                    "put_s": 0.0,
                    "recheck_hits": set(),
                }
                self.batches.append(batch)
                for item in items:
                    request = self._by_item.pop(id(item), None)
                    if request is not None:
                        request["queue_wait_s"] = taken - request["enqueued"]
                        request["batch"] = batch
            return items

        return wrapper

    def _wrap_topk(self, topk):
        def wrapper(*args, **kwargs):
            started = _now()
            try:
                return topk(*args, **kwargs)
            finally:
                request = CURRENT_REQUEST.get()
                if request is not None:
                    request["topk_s"] = request.get("topk_s", 0.0) + _now() - started

        return wrapper

    def useful_solves(self) -> tuple[int, int]:
        """``(solves whose client still waited, all solves)`` over every batch.

        Read after the server drained: a pending future that is cancelled
        by then was abandoned by its client before the answer arrived.
        """
        useful = total = 0
        for batch in self.batches:
            waiting: dict[str, bool] = {}
            for item in batch["items"]:
                fingerprint = item.fingerprint
                alive = not item.future.cancelled()
                waiting[fingerprint] = waiting.get(fingerprint, False) or alive
            for fingerprint, alive in waiting.items():
                if fingerprint in batch["recheck_hits"]:
                    continue
                total += 1
                useful += alive
        return useful, total
