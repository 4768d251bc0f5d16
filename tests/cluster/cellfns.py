"""Module-level cell functions for the cluster tests.

Fleet workers unpickle cell functions by module reference, so anything a
spawned worker process executes must live in an importable module — not
in a test function body.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.05)
    return x * x


def nap(seconds):
    time.sleep(seconds)
    return seconds


def square_when(path, x):
    """``x * x`` once ``path`` exists (or 30 s on): holds a run's cells
    until the test has seen every worker it expects join."""
    deadline = time.monotonic() + 30.0
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    return x * x


def graph_edges(graph, width):
    """A cell with a graph argument, for shipping-dedup tests."""
    return int(graph.num_edges) + int(width)


def die_in_worker(x):
    """Kill the hosting process — only when it is a worker, so the
    serial-fallback path can run it in the parent and survive."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return x * x


def boom(x):
    raise RuntimeError(f"cell {x} failed")


class Unpicklable(Exception):
    """An exception that cannot cross a process boundary (holds a lock)."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def raise_unpicklable(x):
    raise Unpicklable(f"cell {x} cannot cross")
