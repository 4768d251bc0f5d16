"""Event tracing: Chrome-trace export, counter tracks, disabled fast path."""

import json
import os
import threading

import pytest

from repro.graphs import load_graph
from repro.harness import run_experiment
from repro.obs import spans
from repro.obs.trace import (
    TRACE_PROCESS_NAME,
    TraceRecorder,
    counter_sample,
    current_tracer,
    tracing,
)
from repro.obs.spans import span

GOLDEN_SHAPE = os.path.join(os.path.dirname(__file__), "data", "golden_trace_shape.json")


@pytest.fixture(autouse=True)
def _clean_sink_state():
    """Never leak an installed event sink into (or out of) a test."""
    spans.set_event_sink(None)
    yield
    spans.set_event_sink(None)


def trace_shape(tracer):
    """Structural summary of a trace: event counts by path/track.

    Timestamps vary run to run; the *set* of recorded span paths and
    counter tracks (and how often each fires) is deterministic for a
    fixed graph and method, so that is what the golden file pins.
    """
    durations = {}
    tracks = {}
    for event in tracer.events():
        if event["ph"] == "X":
            path = event["args"]["path"]
            durations[path] = durations.get(path, 0) + 1
        elif event["ph"] == "C":
            tracks[event["name"]] = tracks.get(event["name"], 0) + 1
    return {"duration_events": durations, "counter_tracks": tracks}


# ----------------------------------------------------------------------
# recorder unit behaviour
# ----------------------------------------------------------------------
def test_tracing_scope_installs_and_restores():
    assert current_tracer() is None
    with tracing() as tracer:
        assert current_tracer() is tracer
        with tracing() as inner:
            assert current_tracer() is inner
        assert current_tracer() is tracer
    assert current_tracer() is None


def test_span_records_duration_event_with_path():
    with tracing() as tracer:
        with span("outer"):
            with span("inner"):
                pass
    events = tracer.events()
    assert [e["name"] for e in events] == ["outer", "inner"] or [
        e["name"] for e in events
    ] == ["inner", "outer"]
    by_name = {e["name"]: e for e in events}
    assert by_name["inner"]["args"]["path"] == "outer/inner"
    assert by_name["inner"]["ph"] == "X"
    assert by_name["inner"]["dur"] >= 0
    # Inner completes first, so its end-relative ts ordering holds:
    assert by_name["outer"]["ts"] <= by_name["inner"]["ts"]


def test_counter_sample_records_track():
    with tracing() as tracer:
        counter_sample("residual", {"residual": 0.5})
        counter_sample("residual", {"residual": 0.25})
        counter_sample("other", {"a": 1, "b": 2})
    assert tracer.counter_tracks() == ["other", "residual"]
    residuals = [e for e in tracer.events() if e["name"] == "residual"]
    assert [e["args"]["residual"] for e in residuals] == [0.5, 0.25]
    assert all(e["ph"] == "C" for e in residuals)


def test_counter_sample_is_noop_when_disabled():
    counter_sample("ghost", {"x": 1.0})  # must not raise
    assert current_tracer() is None


def test_threads_get_stable_distinct_tids():
    recorder = TraceRecorder()

    def work():
        with tracing(recorder):
            pass  # tracing() is process-global; just record from the thread
        recorder.record_span("from_thread", 0.0, 1.0)

    recorder.record_span("main", 0.0, 1.0)
    t = threading.Thread(target=work)
    t.start()
    t.join()
    recorder.record_span("main_again", 0.0, 1.0)
    tids = {e["name"]: e["tid"] for e in recorder.events()}
    assert tids["main"] == tids["main_again"] == 0
    assert tids["from_thread"] == 1


def test_chrome_export_structure(tmp_path):
    with tracing() as tracer:
        with span("work"):
            pass
        counter_sample("track", {"v": 1.0})
    path = tmp_path / "trace.json"
    tracer.save(str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    # Metadata first: the process-name announcement.
    assert events[0]["ph"] == "M"
    assert events[0]["args"]["name"] == TRACE_PROCESS_NAME
    for event in events[1:]:
        assert event["ph"] in ("X", "C")
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["dur"], (int, float))


# ----------------------------------------------------------------------
# the disabled fast path (acceptance: no-op span unchanged)
# ----------------------------------------------------------------------
def test_disabled_fast_path_preserved_after_tracing():
    """With no recorder and no tracer, span() is the shared no-op singleton."""
    before = span("a")
    assert before is span("b")  # no allocation when fully disabled
    with tracing():
        assert span("c") is not before  # live span while tracing
    after = span("d")
    assert after is before  # fast path restored after the scope exits


# ----------------------------------------------------------------------
# golden shape: a full instrumented measure run
# ----------------------------------------------------------------------
def golden_run():
    # The oracle engine keeps the shape independent of which rung the
    # default engine resolves to (its class names the simulate span) and
    # of the compiled backend's one-time warm-up span.
    graph = load_graph("urand", scale=0.03, seed=42)
    with tracing() as tracer:
        run_experiment(graph, "dpb", graph_name="urand", engine="flru")
    return tracer


def test_golden_trace_shape():
    """The span paths and counter tracks of a fixed run are pinned.

    Regenerate after deliberate instrumentation changes with::

        PYTHONPATH=src python -m tests.obs.regen_golden_trace
    """
    shape = trace_shape(golden_run())
    with open(GOLDEN_SHAPE) as handle:
        golden = json.load(handle)
    assert shape == golden


def test_golden_run_has_required_tracks():
    tracer = golden_run()
    tracks = tracer.counter_tracks()
    # The tentpole's required counter sources: per-stream DRAM transfers,
    # the running miss rate, and the model-drift deltas.
    assert "miss_rate" in tracks
    assert "model_drift[dpb]" in tracks
    assert any(track.startswith("dram[") for track in tracks)
    assert len(tracks) >= 3
