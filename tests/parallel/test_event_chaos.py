"""Event-stream integrity under chaos (ISSUE 7 satellite).

The resilience suite proves fault injection never changes *results*;
this file proves it never corrupts the *flight recording* either.  For
any seeded :class:`FaultPlan`, the fault schedule is a pure function of
``(fingerprint, attempt)`` — so a test can recompute, independently of
the engine, exactly which injected faults and retries must appear in the
event stream, and assert each appears exactly once with causal per-cell
ordering.  Fixed-seed pool cases extend the claim across process
boundaries, including the hardest path: replacing a wedged worker must
not lose any event the doomed worker already sent.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.events import collecting
from repro.parallel import (
    CellFailedError,
    FaultPlan,
    RetryPolicy,
    SweepCell,
    SweepStats,
    default_workers,
    run_cells,
)
from repro.utils.fingerprint import cell_fingerprint


def _pool_workers(wanted: int) -> int:
    """Cap a test's pool size to the runner's usable CPUs (min 2 so the
    process-pool path stays exercised even on single-core CI)."""
    return max(2, min(wanted, default_workers()))


# ----------------------------------------------------------------------
# module-level cell functions (pool workers pickle them by reference)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _hang(x):
    time.sleep(60)
    return x


def _cells(n=6):
    return [SweepCell(key=i, fn=_square, args=(i,)) for i in range(n)]


def _fingerprints(cells):
    return {
        cell.key: cell_fingerprint(cell.fn, cell.key, cell.args, cell.kwargs)
        for cell in cells
    }


def _predicted_faults(plan, fingerprints):
    """Recompute the engine's fault schedule from the plan alone.

    Returns ``{fingerprint: [kind, ...]}`` — the injected fault of each
    failed attempt, in attempt order, ending at the first clean attempt
    (which succeeds, because the cells themselves never fail).
    """
    schedule = {}
    for fingerprint in fingerprints.values():
        kinds = []
        attempt = 0
        while True:
            kind = plan.decide(fingerprint, attempt)
            if kind is None:
                break
            kinds.append(kind)
            attempt += 1
        schedule[fingerprint] = kinds
    return schedule


def _fault_event_kind(injected_kind):
    # InjectedTimeout surfaces as cell_timeout; crash and corrupt as
    # cell_faulted (the corrupt poison is detected by the parent).
    return "cell_timeout" if injected_kind == "timeout" else "cell_faulted"


plan_strategy = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31),
    rate=st.floats(min_value=0.0, max_value=1.0),
    kinds=st.sets(
        st.sampled_from(["crash", "timeout", "corrupt"]), min_size=1
    ).map(tuple),
    max_per_cell=st.integers(min_value=0, max_value=3),
)


# ----------------------------------------------------------------------
# the property: the recording matches the independently recomputed schedule
# ----------------------------------------------------------------------
@given(plan=plan_strategy)
@settings(max_examples=25, deadline=None)
def test_every_injected_fault_is_recorded_exactly_once(plan):
    cells = _cells()
    fingerprints = _fingerprints(cells)
    schedule = _predicted_faults(plan, fingerprints)
    with collecting() as bus:
        result = run_cells(
            cells,
            workers=1,
            fault_plan=plan,
            policy=RetryPolicy.covering(plan),
        )
    assert result == {i: i * i for i in range(6)}

    events = bus.events()
    predicted = sorted(
        (fingerprint, attempt, _fault_event_kind(kind))
        for fingerprint, kinds in schedule.items()
        for attempt, kind in enumerate(kinds)
    )
    observed = sorted(
        (e.fingerprint, e.attempt, e.kind)
        for e in events
        if e.kind in ("cell_faulted", "cell_timeout")
    )
    # Exactly once: same multiset, so nothing lost and nothing duplicated.
    assert observed == predicted
    assert all(
        e.payload["injected"] and not e.payload["permanent"]
        for e in events
        if e.kind in ("cell_faulted", "cell_timeout")
    )
    retried = sorted(
        (e.fingerprint, e.attempt)
        for e in events
        if e.kind == "cell_retried"
    )
    assert retried == sorted(
        (fingerprint, attempt) for fingerprint, attempt, _ in predicted
    )

    fleet = bus.fleet_summary()["cells"]
    assert fleet["executed"] == len(cells)
    assert fleet["total"] == fleet["executed"]  # nothing cached or resumed
    assert fleet["failed"] == 0
    assert fleet["injected_faults"] == fleet["faults"] == len(predicted)
    assert fleet["retries"] == len(predicted)


@given(plan=plan_strategy)
@settings(max_examples=25, deadline=None)
def test_per_cell_event_order_is_causal(plan):
    cells = _cells()
    fingerprints = _fingerprints(cells)
    schedule = _predicted_faults(plan, fingerprints)
    with collecting() as bus:
        run_cells(
            cells,
            workers=1,
            fault_plan=plan,
            policy=RetryPolicy.covering(plan),
        )
    events = bus.events()
    for key, fingerprint in fingerprints.items():
        kinds = schedule[fingerprint]
        history = [
            (e.kind, e.attempt)
            for e in events
            if e.fingerprint == fingerprint
        ]
        # started(a) -> fault(a) -> retried(a) for each failed attempt,
        # then started(k) -> finished(k): the exact causal lifecycle.
        expected = []
        for attempt, kind in enumerate(kinds):
            expected += [
                ("cell_started", attempt),
                (_fault_event_kind(kind), attempt),
                ("cell_retried", attempt),
            ]
        final = len(kinds)
        expected += [("cell_started", final), ("cell_finished", final)]
        assert history == expected, f"cell {key!r}"


# ----------------------------------------------------------------------
# pool mode: the same integrity across process boundaries
# ----------------------------------------------------------------------
def test_pool_mode_records_the_same_schedule_as_serial():
    plan = FaultPlan(seed=7, rate=0.5, kinds=("crash", "corrupt"), max_per_cell=2)
    cells = _cells(8)
    schedule = _predicted_faults(plan, _fingerprints(cells))
    predicted = sorted(
        (fingerprint, attempt, _fault_event_kind(kind))
        for fingerprint, kinds in schedule.items()
        for attempt, kind in enumerate(kinds)
    )
    assert predicted  # seed chosen so the test actually exercises faults
    with collecting() as bus:
        result = run_cells(
            cells,
            workers=_pool_workers(4),
            fault_plan=plan,
            policy=RetryPolicy.covering(plan),
        )
    assert result == {i: i * i for i in range(8)}
    events = bus.events()
    observed = sorted(
        (e.fingerprint, e.attempt, e.kind)
        for e in events
        if e.kind in ("cell_faulted", "cell_timeout")
    )
    assert observed == predicted
    # Worker-side lifecycle crossed the process boundary intact: one
    # start per attempt (failed and final), one finish per cell.
    starts = [e for e in events if e.kind == "cell_started"]
    assert len(starts) == len(cells) + len(predicted)
    assert sum(1 for e in events if e.kind == "cell_finished") == len(cells)
    assert sum(1 for e in events if e.kind == "worker_spawned") >= 1
    assert all(e.worker.startswith("pid") for e in starts)
    fleet = bus.fleet_summary()
    assert fleet["cells"]["executed"] == 8
    assert fleet["cells"]["total"] == 8
    assert fleet["workers"]["spawned"] >= 1


def test_pool_causal_order_verdict_follows_start(monkeypatch):
    # Weaker than the serial ordering claim (workers interleave), but the
    # per-cell causality must survive the queue: a parent verdict on
    # attempt N arrives after that attempt's cell_started, and the next
    # attempt's start arrives after the verdict.
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    plan = FaultPlan(seed=3, rate=0.6, kinds=("crash",), max_per_cell=2)
    cells = _cells(6)
    with collecting() as bus:
        run_cells(
            cells,
            workers=_pool_workers(3),
            fault_plan=plan,
            policy=RetryPolicy.covering(plan),
        )
    for fingerprint in _fingerprints(cells).values():
        history = [
            (e.kind, e.attempt)
            for e in bus.events()
            if e.fingerprint == fingerprint
            and e.kind in ("cell_started", "cell_faulted", "cell_retried",
                           "cell_finished")
        ]
        position = {pair: i for i, pair in enumerate(history)}
        assert len(position) == len(history)  # no duplicated lifecycle event
        for kind, attempt in history:
            if kind in ("cell_faulted", "cell_retried", "cell_finished"):
                assert position[("cell_started", attempt)] < position[(kind, attempt)]
            if kind == "cell_started" and attempt > 0:
                assert position[("cell_retried", attempt - 1)] < position[(kind, attempt)]


# ----------------------------------------------------------------------
# wedged-worker replacement: nothing already sent is lost
# ----------------------------------------------------------------------
def test_wedged_pool_replacement_loses_no_events(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    stats = SweepStats()
    cells = [SweepCell(key="hang", fn=_hang, args=(0,))] + [
        SweepCell(key=i, fn=_square, args=(i,)) for i in range(3)
    ]
    fingerprints = _fingerprints(cells)
    with collecting() as bus:
        with pytest.raises(CellFailedError):
            run_cells(
                cells,
                workers=2,
                policy=RetryPolicy(max_retries=0, cell_timeout=0.3),
                stats=stats,
            )
    assert stats.pool_restarts >= 1
    events = bus.events()

    replacements = [e for e in events if e.kind == "worker_replaced"]
    assert replacements and replacements[0].payload["reason"] == "wedged"

    # The hung cell's start was sent by a worker that was later
    # terminated — the coordinator must still have collected it.
    hang_fp = fingerprints["hang"]
    assert any(
        e.kind == "cell_started" and e.fingerprint == hang_fp for e in events
    )
    timeout = next(e for e in events if e.kind == "cell_timeout")
    assert timeout.fingerprint == hang_fp
    assert timeout.payload["permanent"]
    assert not timeout.payload["injected"]  # a real deadline, not a drill

    # Every healthy cell finished exactly once despite the replacement.
    finished = [e.fingerprint for e in events if e.kind == "cell_finished"]
    assert sorted(finished) == sorted(
        fingerprints[key] for key in fingerprints if key != "hang"
    )
    fleet = bus.fleet_summary()["cells"]
    assert fleet["executed"] == 3
    assert fleet["total"] == 3
    assert fleet["failed"] == 1
    assert fleet["timeouts"] >= 1
