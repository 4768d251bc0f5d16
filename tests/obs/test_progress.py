"""Tests for the live fleet progress renderer (repro.obs.progress).

The CI-safety satellite of ISSUE 7 lives here: ``plain`` mode must emit
no ANSI escapes and no carriage returns, ``auto`` must degrade to plain
off a TTY, and ``-q`` must silence progress entirely.  The accounting
tests mirror the bus's fingerprint-dedup rules so the rendered counters
can never disagree with the report's ``fleet`` section.
"""

from __future__ import annotations

import io

import pytest

from repro.obs.events import Event, EventBus
from repro.obs.progress import ProgressRenderer, attach_progress, resolve_mode


def _event(kind, *, cell=None, fingerprint=None, worker="main", attempt=None,
           **payload):
    return Event(
        kind=kind, ts=0.0, worker=worker, seq=0, cell=cell,
        fingerprint=fingerprint, attempt=attempt, payload=payload,
    )


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _renderer(**kwargs):
    kwargs.setdefault("mode", "plain")
    kwargs.setdefault("stream", io.StringIO())
    kwargs.setdefault("clock", _FakeClock())
    return ProgressRenderer(**kwargs)


# ----------------------------------------------------------------------
# mode resolution (the -q / non-TTY satellite)
# ----------------------------------------------------------------------
def test_resolve_mode_quiet_always_wins():
    assert resolve_mode("auto", io.StringIO(), quiet=True) == "off"
    assert resolve_mode("live", io.StringIO(), quiet=True) == "off"


def test_resolve_mode_auto_picks_plain_off_a_tty():
    assert resolve_mode("auto", io.StringIO()) == "plain"


def test_resolve_mode_auto_picks_live_on_a_tty():
    class Tty(io.StringIO):
        def isatty(self):
            return True

    assert resolve_mode("auto", Tty()) == "live"


def test_resolve_mode_survives_streams_without_isatty():
    class Odd:
        def isatty(self):
            raise OSError("not a real stream")

    assert resolve_mode("auto", Odd()) == "plain"


def test_resolve_mode_passes_explicit_modes_through():
    assert resolve_mode("plain", io.StringIO()) == "plain"
    assert resolve_mode("off", io.StringIO()) == "off"


def test_attach_progress_returns_none_when_off():
    bus = EventBus()
    assert attach_progress(bus, mode="auto", stream=io.StringIO(), quiet=True) is None
    assert attach_progress(bus, mode="off", stream=io.StringIO()) is None


def test_attach_progress_subscribes_a_renderer():
    bus = EventBus()
    stream = io.StringIO()
    renderer = attach_progress(bus, mode="plain", stream=stream)
    assert renderer is not None
    bus.emit("plan_started", cell="fig3", cells_unique=2)
    bus.emit("cell_finished", cell="a", fingerprint="fp-a", seconds=0.1)
    assert renderer.done == 1
    assert "cells 1/2" in stream.getvalue()


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        ProgressRenderer(mode="fancy")


# ----------------------------------------------------------------------
# output hygiene
# ----------------------------------------------------------------------
def test_plain_output_has_no_ansi_or_carriage_returns():
    stream = io.StringIO()
    renderer = _renderer(stream=stream)
    renderer.handle(_event("plan_started", cells_unique=3))
    renderer.handle(_event("cell_started", cell="a", worker="pid1"))
    renderer.handle(_event("cell_finished", cell="a", fingerprint="fp-a"))
    renderer.handle(_event("cell_retried", cell="b", fingerprint="fp-b"))
    renderer.finish()
    output = stream.getvalue()
    assert "\x1b" not in output
    assert "\r" not in output
    assert output.endswith("\n")
    assert "cells 1/3" in output


def test_live_output_redraws_in_place_and_releases_the_line():
    stream = io.StringIO()
    renderer = _renderer(mode="live", stream=stream, throttle=0.0)
    renderer.handle(_event("plan_started", cells_unique=2))
    renderer.handle(_event("cell_finished", cell="a", fingerprint="fp-a"))
    renderer.finish()
    output = stream.getvalue()
    assert "\r\x1b[2K" in output  # in-place redraw
    assert output.endswith("\n")  # finish releases the open line


def test_plain_mode_throttles_but_forces_milestones():
    clock = _FakeClock()
    stream = io.StringIO()
    renderer = _renderer(stream=stream, clock=clock, throttle=1.0)
    # Milestones render regardless of the throttle window...
    renderer.handle(_event("cell_finished", cell="a", fingerprint="a"))
    renderer.handle(_event("cell_finished", cell="b", fingerprint="b"))
    assert stream.getvalue().count("\n") == 2
    # ...non-milestone churn inside the window does not.
    renderer.handle(_event("cell_started", cell="c", worker="pid1"))
    assert stream.getvalue().count("\n") == 2
    clock.now += 2.0
    renderer.handle(_event("cell_started", cell="d", worker="pid2"))
    assert stream.getvalue().count("\n") == 3


def test_broken_stream_silences_rendering_instead_of_raising():
    class Broken(io.StringIO):
        def write(self, text):
            raise OSError("stream closed")

    renderer = _renderer(stream=Broken())
    renderer.handle(_event("cell_finished", cell="a", fingerprint="a"))
    assert renderer.mode == "off"
    renderer.handle(_event("cell_finished", cell="b", fingerprint="b"))
    renderer.finish()  # still silent
    # Off mode stops folding state too — the renderer is done.
    assert renderer.executed == 1


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def test_total_accumulates_across_plan_started_events():
    renderer = _renderer()
    renderer.handle(_event("plan_started", cells_unique=3))
    renderer.handle(_event("plan_started", cells_unique=2))
    assert renderer.total == 5


def test_terminal_events_dedup_by_fingerprint():
    renderer = _renderer()
    renderer.handle(_event("cell_finished", cell="a", fingerprint="fp-a"))
    # A late duplicate finish (post-timeout replay) and a cache hit for
    # the same fingerprint must not inflate done.
    renderer.handle(_event("cell_finished", cell="a", fingerprint="fp-a"))
    renderer.handle(_event("cache_hit", cell="a", fingerprint="fp-a"))
    renderer.handle(_event("cache_hit", cell="b", fingerprint="fp-b"))
    assert renderer.executed == 1
    assert renderer.cached == 1
    assert renderer.done == 2


def test_running_tracks_workers_and_clears_on_replacement():
    renderer = _renderer()
    renderer.handle(_event("cell_started", cell="a", worker="pid1"))
    renderer.handle(_event("cell_started", cell="b", worker="pid2"))
    assert renderer.running == {"pid1": "a", "pid2": "b"}
    renderer.handle(_event("cell_finished", cell="a", fingerprint="fp-a",
                           worker="pid1"))
    assert renderer.running == {"pid2": "b"}
    renderer.handle(_event("worker_replaced", reason="wedged"))
    assert renderer.running == {}
    assert renderer.replacements == 1


def test_faults_and_permanent_failures_are_counted():
    renderer = _renderer()
    renderer.handle(_event("cell_faulted", cell="a", fingerprint="fp-a",
                           injected=True, permanent=False))
    renderer.handle(_event("cell_retried", cell="a", fingerprint="fp-a"))
    renderer.handle(_event("cell_timeout", cell="b", fingerprint="fp-b",
                           injected=False, permanent=True))
    assert renderer.faults == 2
    assert renderer.retries == 1
    assert renderer.failed == 1
    line = renderer.status_line()
    assert "1 retried" in line
    assert "1 failed" in line


def test_eta_comes_from_the_observed_completion_rate():
    clock = _FakeClock()
    renderer = _renderer(clock=clock, total=4)
    assert renderer.eta_seconds() is None  # nothing observed yet
    clock.now = 10.0
    renderer.handle(_event("cell_finished", cell="a", fingerprint="a"))
    renderer.handle(_event("cell_finished", cell="b", fingerprint="b"))
    # 2 cells in 10s -> 2 remaining take ~10s more.
    assert renderer.eta_seconds() == pytest.approx(10.0)
    assert "eta 10s" in renderer.status_line()
    renderer.handle(_event("cell_finished", cell="c", fingerprint="c"))
    renderer.handle(_event("cell_finished", cell="d", fingerprint="d"))
    assert renderer.eta_seconds() is None  # done: no eta on the final line


def test_worker_detail_only_on_the_live_line():
    plain = _renderer()
    plain.handle(_event("cell_started", cell="a", worker="pid1"))
    assert "pid1" not in plain.status_line()
    live = _renderer(mode="live", throttle=0.0)
    live.handle(_event("cell_started", cell="a", worker="pid1"))
    assert "pid1:a" in live.status_line()
