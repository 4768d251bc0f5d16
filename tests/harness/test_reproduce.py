"""Tests for the one-command reproduction driver."""

import os

import pytest

from repro.harness.reproduce import ARTIFACTS, build_parser, main, plan_specs


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.scale == 1.0
    assert args.output == "results"
    assert args.only is None


def test_parser_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--only", "fig99"])


def test_subset_run_writes_files(tmp_path, capsys):
    code = main(
        [
            "--scale",
            "0.03",
            "--output",
            str(tmp_path),
            "--only",
            "table1",
            "fig3",
        ]
    )
    assert code == 0
    assert (tmp_path / "table1_suite.txt").exists()
    assert (tmp_path / "fig3_vertex_traffic.txt").exists()
    # No other artifacts were produced.
    assert len(list(tmp_path.iterdir())) == 2
    # Progress goes through the repro logger to stderr, not print/stdout.
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote" in captured.err and "done." in captured.err
    assert "repro.harness.reproduce" in captured.err


def test_fig7_quick(tmp_path, capsys):
    code = main(
        ["--quick", "--output", str(tmp_path), "--only", "fig7"]
    )
    assert code == 0
    text = (tmp_path / "fig7_scale_vertices.txt").read_text()
    assert "Baseline" in text and "DPB" in text


def test_artifact_registry_complete():
    assert len(ARTIFACTS) == 12
    assert set(ARTIFACTS) >= {"table1", "table3", "fig3", "fig11"}


def test_full_plan_builds_urand_once(monkeypatch):
    import repro.graphs.suite
    import repro.harness.reproduce

    builds = []

    def counting(load_graph):
        def wrapper(name, **kwargs):
            builds.append((name, kwargs["seed"], kwargs["scale"]))
            return load_graph(name, **kwargs)

        return wrapper

    for module in (repro.graphs.suite, repro.harness.reproduce):
        monkeypatch.setattr(module, "load_graph", counting(module.load_graph))
    plan_specs(set(ARTIFACTS), scale=0.02, seed=42)
    assert builds.count(("urand", 42, 0.02)) == 1
    # Every (graph, seed, scale) is built once.
    assert len(builds) == len(set(builds))


def test_warm_cache_run_executes_zero_cells(tmp_path):
    import json

    cache = str(tmp_path / "cache")
    base = ["--scale", "0.03", "--only", "table2", "fig3", "--cache", cache, "-q", "-q"]
    cold_out, warm_out = tmp_path / "cold", tmp_path / "warm"

    cold_report = tmp_path / "cold.json"
    assert main([*base, "--output", str(cold_out), "--report", str(cold_report)]) == 0
    cold = json.loads(cold_report.read_text())
    assert cold["plan"]["executed"] == cold["plan"]["cells_unique"]
    assert cold["plan"]["cache_hits"] == 0

    warm_report = tmp_path / "warm.json"
    assert main([*base, "--output", str(warm_out), "--report", str(warm_report)]) == 0
    warm = json.loads(warm_report.read_text())
    # Every cell came from the cache; nothing was simulated again...
    assert warm["plan"]["executed"] == 0
    assert warm["plan"]["cache_hits"] == warm["plan"]["cells_unique"]
    # table2's baseline row is fig3's urand cell: dedup even in this pair.
    assert warm["plan"]["dedup_ratio"] > 1.0
    # ...and the artifacts are byte-identical to the cold run's.
    for name in ("table2_priorwork.txt", "fig3_vertex_traffic.txt"):
        assert (warm_out / name).read_bytes() == (cold_out / name).read_bytes()


def _live_session_processes(sid):
    """Pids of non-zombie processes in session ``sid`` (from /proc)."""
    from pathlib import Path

    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[3]) == sid and fields[0] != "Z":
            live.append(int(stat.parent.name))
    return live


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_interrupted_pooled_run_exits_and_leaves_no_process(tmp_path):
    """SIGINT to the driver of a pooled run: it exits nonzero within 5 s
    and, 2 s later, nothing it started is still alive."""
    import signal
    import subprocess
    import sys
    import time

    cache = tmp_path / "cache"
    # Install Python's SIGINT handler even if this process inherited an
    # ignored SIGINT (a backgrounded shell job does).
    code = (
        "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
        "from repro.harness.reproduce import main; sys.exit(main(sys.argv[1:]))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("REPRO_FAULT_PLAN", None)
    proc = subprocess.Popen(
        [
            sys.executable, "-c", code, "--quick", "--only", "fig9", "fig10",
            "--workers", "2", "--cache", str(cache), "--output",
            str(tmp_path / "out"), "-q", "--progress", "off",
        ],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not [
            entry for entry in cache.glob("objects/*/*.json")
            if not entry.name.startswith(".tmp")
        ]:
            assert proc.poll() is None, "run ended before it cached a cell"
            assert time.monotonic() < deadline, "no cell cached within 120 s"
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=5.0) != 0
        deadline = time.monotonic() + 2.0
        while _live_session_processes(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_session_processes(proc.pid) == []
    finally:
        try:  # whatever a failed assertion left running
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
