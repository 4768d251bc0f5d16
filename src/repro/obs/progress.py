"""Live fleet progress for ``repro-pb plan`` / ``reproduce``.

A :class:`ProgressRenderer` subscribes to a
:class:`repro.obs.events.EventBus` and renders the sweep's state as it
evolves: cells done / running / retrying / cached, an ETA from the
observed cell rate, and per-worker activity.  Three render modes:

``live``
    a single status line redrawn in place (carriage return + ANSI
    erase-line) — for interactive terminals;
``plain``
    a full line per state change, throttled to one per second — no ANSI
    escapes, no carriage returns, safe for CI logs and redirected output;
``off``
    nothing.

``mode="auto"`` picks ``live`` on a TTY and ``plain`` otherwise, and the
CLI drops to ``off`` under ``-q`` — progress output never corrupts a
pipeline or a CI log (ISSUE 7 satellite).  The renderer is a passive
subscriber: it never raises into the engine (the bus already isolates
subscriber errors) and keeps no reference to cells or results.
"""

from __future__ import annotations

import sys
import time
from typing import Any, TextIO

from repro.obs.events import Event, EventBus

__all__ = ["ProgressRenderer", "attach_progress", "resolve_mode"]

#: Events after which a ``plain`` line is worth printing (state changed
#: in a way a log reader cares about).
_MILESTONES = frozenset(
    {
        "plan_started",
        "cell_finished",
        "cache_hit",
        "cell_retried",
        "cell_timeout",
        "cell_faulted",
        "worker_replaced",
    }
)


def resolve_mode(mode: str, stream: TextIO, *, quiet: bool = False) -> str:
    """Resolve ``auto`` against the stream and the ``-q`` flag."""
    if quiet:
        return "off"
    if mode == "auto":
        try:
            interactive = stream.isatty()
        except Exception:  # noqa: BLE001 — odd streams count as non-TTY
            interactive = False
        return "live" if interactive else "plain"
    return mode


class ProgressRenderer:
    """Folds the event stream into one evolving progress line.

    ``total`` (the number of unique cells) is taken from the
    ``plan_started`` event when one arrives, so callers rarely pass it.
    ``throttle`` bounds redraw frequency; terminal events always render
    so the final state is never stale.
    """

    def __init__(
        self,
        *,
        mode: str = "plain",
        stream: TextIO | None = None,
        total: int | None = None,
        throttle: float | None = None,
        clock=time.monotonic,
    ) -> None:
        if mode not in ("live", "plain", "off"):
            raise ValueError(f"unknown progress mode {mode!r}")
        self.mode = mode
        self.stream = stream if stream is not None else sys.stderr
        self.total = total
        self.throttle = throttle if throttle is not None else (
            0.1 if mode == "live" else 1.0
        )
        self._clock = clock
        self._started = clock()
        self._last_render = float("-inf")
        self._line_open = False  # a live line is on screen, un-terminated
        # state
        self.executed = 0
        self.cached = 0
        self.retries = 0
        self.faults = 0
        self.failed = 0
        self.replacements = 0
        self.running: dict[str, str] = {}  # worker -> cell key
        self._terminal: set[str] = set()  # fingerprints already counted done

    # ------------------------------------------------------------------
    @property
    def done(self) -> int:
        return self.executed + self.cached

    def eta_seconds(self) -> float | None:
        """Remaining-time estimate from the observed completion rate."""
        if self.total is None or self.done == 0 or self.done >= self.total:
            return None
        elapsed = self._clock() - self._started
        return elapsed / self.done * (self.total - self.done)

    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        """Bus subscriber: fold one event and maybe redraw."""
        if self.mode == "off":
            return
        key = event.fingerprint or event.cell or ""
        if event.kind == "plan_started":
            total = event.payload.get("cells_unique")
            if total is not None:
                self.total = (self.total or 0) + int(total)
        elif event.kind == "cell_started":
            self.running[event.worker] = str(event.cell)
        elif event.kind == "cell_finished":
            self.running.pop(event.worker, None)
            if key not in self._terminal:
                self._terminal.add(key)
                self.executed += 1
        elif event.kind == "cache_hit":
            if key not in self._terminal:
                self._terminal.add(key)
                self.cached += 1
        elif event.kind == "cell_retried":
            self.retries += 1
        elif event.kind in ("cell_faulted", "cell_timeout"):
            self.faults += 1
            if event.payload.get("permanent"):
                self.failed += 1
        elif event.kind == "worker_replaced":
            self.replacements += 1
            self.running.clear()
        self._render(force=event.kind in _MILESTONES and self.mode == "plain")

    # ------------------------------------------------------------------
    def status_line(self) -> str:
        """The current one-line summary (also what the tests assert on)."""
        if self.total is not None:
            head = f"cells {self.done}/{self.total}"
        else:
            head = f"cells {self.done}"
        parts = [head]
        if self.running:
            parts.append(f"{len(self.running)} running")
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.replacements:
            parts.append(f"{self.replacements} worker replacement(s)")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        line = ", ".join(parts)
        if self.running and self.mode == "live":
            # Worker detail only on the live line: it churns too fast to
            # be useful in an append-only log.
            busy = " ".join(
                f"{worker}:{cell}" for worker, cell in sorted(self.running.items())
            )
            line += f" [{busy}]"
        return line

    def _render(self, *, force: bool = False) -> None:
        now = self._clock()
        if not force and now - self._last_render < self.throttle:
            return
        self._last_render = now
        try:
            if self.mode == "live":
                self.stream.write(f"\r\x1b[2K{self.status_line()}")
                self._line_open = True
            else:
                self.stream.write(self.status_line() + "\n")
            self.stream.flush()
        except Exception:  # noqa: BLE001 — a closed stream must not kill the run
            self.mode = "off"

    def finish(self) -> None:
        """Render the final state and release the live line."""
        if self.mode == "off":
            return
        self._last_render = float("-inf")
        self._render(force=True)
        if self.mode == "live" and self._line_open:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except Exception:  # noqa: BLE001
                pass
            self._line_open = False


def attach_progress(
    bus: EventBus,
    *,
    mode: str = "auto",
    stream: TextIO | None = None,
    quiet: bool = False,
    **kwargs: Any,
) -> ProgressRenderer | None:
    """Subscribe a renderer to ``bus``; ``None`` when resolved mode is off."""
    stream = stream if stream is not None else sys.stderr
    resolved = resolve_mode(mode, stream, quiet=quiet)
    if resolved == "off":
        return None
    renderer = ProgressRenderer(mode=resolved, stream=stream, **kwargs)
    bus.subscribe(renderer.handle)
    return renderer
