"""Self-tests of the runner: inputs, metric arithmetic, checks, compare."""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e import __main__ as cli
from benchmarks.e2e import child, compare, metrics, workloads


def test_seed_changes_serve_inputs_and_repeats_them():
    for step in ("light", "overload"):
        a = child.serve_inputs(7, step, seconds=2.0, num_vertices=512)
        assert a == child.serve_inputs(7, step, seconds=2.0, num_vertices=512)
        b = child.serve_inputs(8, step, seconds=2.0, num_vertices=512)
        assert a[0] != b[0] and a[1] != b[1]


def test_seed_changes_reproduce_inputs_and_repeats_them():
    from repro.harness.reproduce import plan_specs
    from repro.plan import compile_plan

    def cells(seed: int) -> list[str]:
        return sorted(compile_plan(plan_specs({"table3"}, scale=workloads.SCALE, seed=seed)).cells)

    assert cells(3) == cells(3)
    assert cells(3) != cells(4)
    argv = child.reproduce_argv(seed=3, scale=workloads.SCALE, workers=1, cache="c", output="o")
    assert argv[argv.index("--seed") + 1] == "3"


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER
    bounds = [m["bound"] for m in spec["end_to_end"]]
    assert metrics.END_TO_END["setup_s"][2] == max(bounds)


def test_percentile_matches_linear_interpolation():
    assert metrics.percentile([1, 2, 3, 4], 50) == 2.5
    assert metrics.percentile([10], 95) == 10
    assert metrics.percentile([0, 10], 95) == pytest.approx(9.5)


def test_reproduce_latency_is_over_cells_where_cells_execute():
    stats = {"executed": 2, "cache_hits": 0}
    cold = [
        {"wall_s": w, "setup_s": 0.5, "rss_mb": 10.0, "stats": stats, "cell_s": cells}
        for w, cells in ((4.0, [0.001, 0.003]), (5.0, [0.002, 0.004]))
    ]
    result = metrics.reproduce_end_to_end(cold)
    assert result["wall_s"] == 4.5 and result["p50_ms"] == pytest.approx(2.5)
    assert result["throughput_qps"] == pytest.approx(metrics.median([0.5, 0.4]))
    warm = [{**c, "cell_s": []} for c in cold]
    assert metrics.reproduce_end_to_end(warm)["p50_ms"] == pytest.approx(4500)


def test_parallel_layer_from_cache_puts():
    # Two workers: cells [0,2] and [0,3] overlap, then [3,4] runs alone.
    puts = [(2.0, 2.0), (3.0, 3.0), (4.0, 1.0)]
    layer = metrics.parallel_layer(puts, plan_s=4.5, workers=2)
    assert layer["worker_busy_frac"] == pytest.approx(6.0 / 9.0)
    assert layer["overhead_s"] == pytest.approx(4.5 - 3.0)
    assert layer["straggler_s"] == pytest.approx(2.0)
    serial = metrics.parallel_layer([(1.0, 1.0), (2.0, 1.0)], plan_s=2.0, workers=1)
    assert serial["straggler_s"] == 0.0 and serial["worker_busy_frac"] == 1.0


def test_artifact_check_rejects_changed_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK", tmp_path / ".work")
    run = tmp_path / "run"
    run.mkdir()
    for i in range(workloads.ARTIFACT_COUNT):
        (run / f"a{i}.txt").write_text(str(i))
    with workloads.Invocation() as inv:
        inv.check_artifacts(-1, str(run))
        inv.check_artifacts(-1, str(run))  # the first set seen, still equal
        (run / "a0.txt").write_text("changed")
        with pytest.raises(workloads.CheckFailed):
            inv.check_artifacts(-1, str(run))
        with pytest.raises(workloads.CheckFailed):  # seed 42 is pinned
            inv.check_artifacts(42, str(run))
    assert list((tmp_path / ".work").iterdir()) == []  # nothing outlives it


def test_missing_or_silent_probes_invalidate_a_traced_run():
    fine = {"missing": [], "fired": {"a": 2, "b": 1}}
    assert workloads._probe_problems([fine], every_probe_fires=True) == []
    silent = {"missing": [], "fired": {"a": 2, "b": 0}}
    assert workloads._probe_problems([silent], every_probe_fires=False) == []
    assert workloads._probe_problems([silent, fine], every_probe_fires=True) == []
    assert workloads._probe_problems([silent], every_probe_fires=True) == [
        "probe never fired: b"
    ]
    gone = {"missing": ["repro.x:f"], "fired": {}}
    assert workloads._probe_problems([gone], every_probe_fires=False) == [
        "probe target not found: repro.x:f"
    ]


def test_failed_check_exits_nonzero_without_metrics(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise workloads.CheckFailed("sampled answers differ")

    monkeypatch.setattr(cli, "run_workload", fail)
    assert cli.main(["--workload", "serve-open", "--seconds", "1"]) == 1
    out = capsys.readouterr().out
    assert '"metrics"' not in out


def _runs(values: list[float]) -> dict:
    return {"w": {"wall_s": {(seed, 0): v for seed, v in enumerate(values)}}}


def test_compare_labels_and_pairs():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    a = _runs(base)
    same = compare.compare(a, a)[0]
    assert same["label"] == "within" and (same["wins"], same["pairs"]) == (0, 5)
    slower = compare.compare(a, _runs([v * 1.4 for v in base]))[0]
    assert slower["label"] == "worse" and slower["wins"] == 0
    noisy = _runs([5.0, 15.0, 7.0, 13.0, 10.0])
    assert compare.compare(a, noisy)[0]["label"] == "unresolved"
    faster = compare.compare(a, _runs([5.0, 9.0, 6.0, 8.0, 7.0]))[0]
    assert faster["label"] == "within" and faster["wins"] == 5


def test_compare_loads_out_directories(tmp_path):
    for side, wall in (("a", 2.0), ("b", 1.0)):
        for seed in (1, 2):
            record = {"workload": "w", "seed": seed, "trace": False,
                      "metrics": {"wall_s": wall + seed / 10}}
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / f"w-seed{seed}-0.json").write_text(json.dumps(record))
    row = compare.compare(
        compare.load_runs(str(tmp_path / "a")), compare.load_runs(str(tmp_path / "b"))
    )[0]
    assert (row["wins"], row["pairs"], row["label"]) == (2, 2, "within")
