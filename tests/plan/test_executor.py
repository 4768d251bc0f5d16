"""Tests for the plan executor: single execution, cache, fan-out, stats."""

import pytest

from repro.harness.cache import MeasurementCache
from repro.parallel.resilience import CellFailedError, RetryPolicy, SweepOptions
from repro.plan import Cell, ExperimentSpec, compile_plan, execute_plan

CALLS: list = []


def _traced_square(x):
    CALLS.append(x)
    return x * x


def _fail_on(x):
    if x == "boom":
        raise RuntimeError("injected")
    return x


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


def _spec(name, cells, build=None):
    return ExperimentSpec(
        name=name, cells=cells, build=build or (lambda values: dict(values))
    )


def _shared_specs():
    a = _spec(
        "a",
        {
            "x": Cell(fn=_traced_square, args=(2,)),
            "y": Cell(fn=_traced_square, args=(3,)),
        },
    )
    b = _spec(
        "b",
        {
            "two": Cell(fn=_traced_square, args=(2,)),
            "z": Cell(fn=_traced_square, args=(5,)),
        },
    )
    return [a, b]


def test_unique_cells_execute_exactly_once():
    plan = compile_plan(_shared_specs())
    results = execute_plan(plan)
    # 4 requested, 3 unique: the shared (2,) cell ran a single time.
    assert sorted(CALLS) == [2, 3, 5]
    assert results.artifact("a") == {"x": 4, "y": 9}
    assert results.artifact("b") == {"two": 4, "z": 25}
    assert plan.stats.executed == 3
    assert plan.stats.cache_hits == 0


def test_values_for_resolves_local_keys():
    plan = compile_plan(_shared_specs())
    results = execute_plan(plan)
    assert results.values_for("b") == {"two": 4, "z": 25}


def test_build_receives_resolved_values():
    spec = _spec(
        "sum",
        {i: Cell(fn=_traced_square, args=(i,)) for i in range(4)},
        build=lambda values: sum(values.values()),
    )
    plan = compile_plan([spec])
    assert execute_plan(plan).artifact("sum") == 0 + 1 + 4 + 9


def test_cache_partition_skips_execution(tmp_path):
    cache = MeasurementCache(str(tmp_path))
    plan = compile_plan(_shared_specs())
    execute_plan(plan, cache=cache)
    assert plan.stats.executed == 3

    CALLS.clear()
    warm = compile_plan(_shared_specs())
    results = execute_plan(warm, cache=cache)
    assert CALLS == []  # nothing ran
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == 3
    assert results.artifact("a") == {"x": 4, "y": 9}


def test_cache_partial_warm_start(tmp_path):
    cache = MeasurementCache(str(tmp_path))
    plan = compile_plan([_spec("a", {"x": Cell(fn=_traced_square, args=(2,))})])
    execute_plan(plan, cache=cache)

    CALLS.clear()
    grown = compile_plan(_shared_specs())
    execute_plan(grown, cache=cache)
    # Only the two genuinely new cells ran.
    assert sorted(CALLS) == [3, 5]
    assert grown.stats.cache_hits == 1
    assert grown.stats.executed == 2


def test_failure_propagates_and_counts_completed_work():
    spec = _spec(
        "mixed",
        {
            "ok": Cell(fn=_fail_on, args=("fine",)),
            "bad": Cell(fn=_fail_on, args=("boom",)),
        },
    )
    plan = compile_plan([spec])
    with pytest.raises(CellFailedError):
        execute_plan(plan, options=SweepOptions(policy=RetryPolicy(max_retries=0)))
    # The healthy cell's completion is still visible in the plan stats.
    assert plan.stats.executed == 1


def test_empty_plan_executes_nothing():
    plan = compile_plan([_spec("empty", {})])
    results = execute_plan(plan)
    assert results.artifact("empty") == {}
    assert plan.stats.executed == 0
