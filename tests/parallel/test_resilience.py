"""Tests for the fault-tolerant sweep engine (repro.parallel.resilience).

The load-bearing claim is *determinism under chaos*: for any seeded fault
plan, a sweep whose retries cover the plan's per-cell fault budget must
return results bit-identical to a fault-free serial run — recovered
faults may never change a number.  hypothesis drives plans over the whole
(seed, rate, kinds) space; fixed-seed cases pin the pool-mode paths
(worker death, deadline overruns, poisoned results) that property tests
cannot exercise cheaply.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.spans import disable, enable
from repro.parallel import (
    FAULT_PLAN_ENV,
    CellFailedError,
    CellTimeoutError,
    FaultPlan,
    InjectedCrash,
    RetryPolicy,
    SweepCell,
    SweepStats,
    default_workers,
    run_cells,
)
from repro.parallel.faults import CORRUPT_RESULT, is_corrupt


# ----------------------------------------------------------------------
# module-level cell functions (pool workers pickle them by reference)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _sleep_forever(x):
    import time

    time.sleep(1.5)
    return x


def _sleep_then_square(x):
    import time

    time.sleep(0.25)
    return x * x


def _nap_then_square(x):
    import time

    time.sleep(0.3)
    return x * x


def _hang(x):
    import time

    time.sleep(60)
    return x


def _die_in_worker(x):
    """Kill the hosting process — but only when it *is* a pool worker.

    The serial-fallback path runs this in the parent, which must survive,
    so the exit is gated on being a child process.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return x * x


def _cells(n=8):
    return [SweepCell(key=i, fn=_square, args=(i,)) for i in range(n)]


EXPECTED = {i: i * i for i in range(8)}


# ----------------------------------------------------------------------
# property: any covered fault plan yields fault-free results
# ----------------------------------------------------------------------
plan_strategy = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31),
    rate=st.floats(min_value=0.0, max_value=1.0),
    kinds=st.sets(
        st.sampled_from(["crash", "timeout", "corrupt"]), min_size=1
    ).map(tuple),
    max_per_cell=st.integers(min_value=0, max_value=3),
)


@given(plan=plan_strategy)
@settings(max_examples=30, deadline=None)
def test_recovered_faults_never_change_results(plan):
    stats = SweepStats()
    result = run_cells(
        _cells(),
        workers=1,
        fault_plan=plan,
        policy=RetryPolicy.covering(plan),
        stats=stats,
    )
    assert result == EXPECTED
    assert stats.completed == 8
    assert stats.failed == []
    # Every injected fault was paid for with a retry.
    assert stats.retries == stats.injected_faults


@given(plan=plan_strategy.map(lambda p: FaultPlan(p.seed, round(p.rate, 4), p.kinds, p.max_per_cell)))
@settings(max_examples=10, deadline=None)
def test_plan_string_round_trip(plan):
    # ``to_string`` prints the rate with %g, so only test rates that
    # survive that formatting (the plan strings humans actually write).
    assert FaultPlan.from_string(plan.to_string()) == plan


def test_plan_decisions_are_deterministic():
    plan = FaultPlan(seed=7, rate=0.5, kinds=("crash", "timeout", "corrupt"))
    decisions = [plan.decide(f"cell{i}", a) for i in range(50) for a in range(3)]
    again = [plan.decide(f"cell{i}", a) for i in range(50) for a in range(3)]
    assert decisions == again
    assert any(d is not None for d in decisions)
    # At/beyond the per-cell budget every attempt is clean.
    assert all(plan.decide(f"cell{i}", plan.max_per_cell) is None for i in range(50))


# ----------------------------------------------------------------------
# pool mode: same determinism across processes
# ----------------------------------------------------------------------
def test_pool_mode_recovers_faults_identically():
    plan = FaultPlan(seed=3, rate=0.5, kinds=("crash", "corrupt"), max_per_cell=2)
    stats = SweepStats()
    result = run_cells(
        _cells(),
        # Capped to the runner's usable CPUs (min 2 keeps pool mode live
        # on single-core CI) so low-core runners aren't oversubscribed.
        workers=max(2, min(3, default_workers())),
        fault_plan=plan,
        policy=RetryPolicy.covering(plan),
        stats=stats,
    )
    assert result == EXPECTED
    assert stats.injected_faults > 0
    assert stats.failed == []


def test_duplicate_keys_resolve_in_submission_order():
    # Two cells share a key; the later submission must win in both modes,
    # exactly as a serial dict-update loop would have it.  Two identical
    # cells (same fingerprint) run at once on two workers: each lease
    # must be accounted on its own, or the pooled run never returns.
    inputs = [
        (
            [
                SweepCell(key="dup", fn=_square, args=(2,)),
                SweepCell(key="dup", fn=_square, args=(5,)),
            ],
            {"dup": 25},
        ),
        ([SweepCell(key="dup", fn=_nap_then_square, args=(3,))] * 2, {"dup": 9}),
    ]
    for cells, expected in inputs:
        assert run_cells(cells, workers=1) == expected
        pooled = {}
        thread = threading.Thread(
            target=lambda: pooled.update(run_cells(cells, workers=2)), daemon=True
        )
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "pooled run did not return within 10 s"
        assert pooled == expected


def test_corrupt_results_never_leak():
    plan = FaultPlan(seed=11, rate=1.0, kinds=("corrupt",), max_per_cell=1)
    result = run_cells(
        _cells(), workers=1, fault_plan=plan, policy=RetryPolicy.covering(plan)
    )
    assert result == EXPECTED
    assert not any(is_corrupt(v) for v in result.values())
    assert is_corrupt(CORRUPT_RESULT)  # the detector itself


# ----------------------------------------------------------------------
# exhaustion: attribution, graceful completion of the rest
# ----------------------------------------------------------------------
def test_exhausted_retries_raise_named_cell_after_others_finish():
    plan = FaultPlan(seed=1, rate=1.0, kinds=("crash",), max_per_cell=10)
    stats = SweepStats()
    cells = _cells(4)
    with pytest.raises(CellFailedError) as excinfo:
        run_cells(
            cells,
            workers=1,
            fault_plan=plan,
            policy=RetryPolicy(max_retries=1),
            stats=stats,
        )
    err = excinfo.value
    assert err.key in range(4)
    assert err.attempts == 2
    assert isinstance(err.__cause__, InjectedCrash)
    # Every cell failed; the first is raised, the rest are listed.
    assert len(err.also_failed) == 3
    assert len(stats.failed) == 4
    assert stats.completed == 0


def test_partial_failure_still_completes_other_cells():
    # rate=1 faults every attempt of every cell but the policy's single
    # retry beats a max_per_cell=1 budget — except we give zero retries,
    # so every cell fails... instead: fault only attempt 0, no retries.
    plan = FaultPlan(seed=5, rate=0.5, kinds=("crash",), max_per_cell=1)
    stats = SweepStats()
    with pytest.raises(CellFailedError):
        run_cells(
            _cells(),
            workers=1,
            fault_plan=plan,
            policy=RetryPolicy(max_retries=0),
            stats=stats,
        )
    # The unlucky cells failed, the clean ones completed anyway.
    assert 0 < stats.completed < 8
    assert stats.completed + len(stats.failed) == 8


# ----------------------------------------------------------------------
# environment-variable plan (the CI chaos hook)
# ----------------------------------------------------------------------
def test_env_fault_plan_is_honoured_and_covered(monkeypatch):
    plan = FaultPlan(seed=9, rate=0.6, kinds=("crash", "corrupt"), max_per_cell=2)
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_string())
    stats = SweepStats()
    # No explicit policy: the engine must choose one covering the plan.
    result = run_cells(_cells(), workers=1, stats=stats)
    assert result == EXPECTED
    assert stats.injected_faults > 0
    assert stats.failed == []


def test_env_plan_ignored_when_unset(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    stats = SweepStats()
    assert run_cells(_cells(), workers=1, stats=stats) == EXPECTED
    assert stats.injected_faults == 0 and stats.retries == 0


# ----------------------------------------------------------------------
# pool degradation and deadlines
# ----------------------------------------------------------------------
def test_worker_death_degrades_to_serial_and_completes():
    stats = SweepStats()
    cells = [SweepCell(key=i, fn=_die_in_worker, args=(i,)) for i in range(4)]
    result = run_cells(cells, workers=2, stats=stats)
    assert result == {i: i * i for i in range(4)}
    assert stats.pool_restarts >= 1
    assert stats.serial_fallback is True
    assert stats.failed == []


def test_cell_timeout_exhaustion_raises_and_does_not_hang(monkeypatch):
    # This test is about *real* wall-clock deadlines; a chaos-plan crash
    # injected before the sleep would mask the CellTimeoutError cause.
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    stats = SweepStats()
    # Two cells: a single-cell sweep would collapse to serial mode, where
    # wall-clock deadlines are unenforceable.
    cells = [SweepCell(key=k, fn=_sleep_forever, args=(1,)) for k in ("s0", "s1")]
    with pytest.raises(CellFailedError) as excinfo:
        run_cells(
            cells,
            workers=2,
            policy=RetryPolicy(max_retries=0, cell_timeout=0.2),
            stats=stats,
        )
    assert isinstance(excinfo.value.__cause__, CellTimeoutError)
    assert stats.timeouts == 2


def test_queued_cells_are_not_charged_timeout_while_waiting(monkeypatch):
    # 8 cells of ~0.25s over 2 workers: the last cells spend ~0.75s queued,
    # which must not count against their 0.6s *execution* deadline.  (The
    # deadline starts at submission, and submissions are throttled to the
    # worker count, so a submitted cell is executing, not queued.)
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    stats = SweepStats()
    cells = [SweepCell(key=i, fn=_sleep_then_square, args=(i,)) for i in range(8)]
    result = run_cells(
        cells,
        workers=2,
        policy=RetryPolicy(max_retries=0, cell_timeout=0.6),
        stats=stats,
    )
    assert result == {i: i * i for i in range(8)}
    assert stats.timeouts == 0
    assert stats.failed == []


def test_hung_cell_does_not_wedge_engine_or_shutdown(monkeypatch):
    # A worker stuck on a 60s cell cannot be preempted; the engine must
    # replace the pool (terminating the stuck worker) rather than join it
    # at shutdown, and the healthy cells sharing the pool must complete.
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    stats = SweepStats()
    cells = [SweepCell(key="hang", fn=_hang, args=(0,))] + [
        SweepCell(key=i, fn=_square, args=(i,)) for i in range(3)
    ]
    start = time.monotonic()
    with pytest.raises(CellFailedError) as excinfo:
        run_cells(
            cells,
            workers=2,
            policy=RetryPolicy(max_retries=0, cell_timeout=0.3),
            stats=stats,
        )
    assert time.monotonic() - start < 10.0  # terminated, never joined
    assert excinfo.value.key == "hang"
    assert isinstance(excinfo.value.__cause__, CellTimeoutError)
    assert stats.completed == 3
    assert stats.pool_restarts >= 1


# ----------------------------------------------------------------------
# policy arithmetic and observability
# ----------------------------------------------------------------------
def test_backoff_is_pure_and_jitterless():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
    assert policy.delay(0) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.4)
    assert [policy.delay(a) for a in range(4)] == [
        policy.delay(a) for a in range(4)
    ]
    assert RetryPolicy().delay(5) == 0.0  # default base disables sleeping


def test_covering_policy_outlasts_plan_budget():
    plan = FaultPlan(seed=0, rate=1.0, kinds=("crash",), max_per_cell=3)
    assert RetryPolicy.covering(plan).max_retries >= plan.max_per_cell
    assert RetryPolicy.covering(None).max_retries == RetryPolicy().max_retries


def test_retries_and_resumes_appear_in_spans():
    plan = FaultPlan(seed=2, rate=1.0, kinds=("crash",), max_per_cell=1)
    recorder = enable()
    try:
        run_cells(
            [SweepCell(key="a", fn=_square, args=(3,))],
            workers=1,
            label="unit",
            fault_plan=plan,
            policy=RetryPolicy.covering(plan),
        )
    finally:
        disable()
    paths = recorder.paths()
    assert "sweep[unit]/retry[a]" in paths
    assert "sweep[unit]/cell[a]" in paths
