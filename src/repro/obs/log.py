"""Structured logging for the repro, on the stdlib :mod:`logging` stack.

All repro loggers live under the ``"repro"`` hierarchy —
``get_logger("harness.reproduce")`` returns ``repro.harness.reproduce`` —
so one :func:`configure` call (driven by the CLI's ``-v``/``-q`` flags)
controls every module without touching the root logger or any logging a
host application has set up.

Levels follow the usual contract: progress and milestones at INFO
(visible with ``-v``), per-step detail at DEBUG (``-vv``), and only
warnings/errors by default.  Library code must log, never ``print``:
print output cannot be silenced by ``-q``, redirected by a host, or
timestamped.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "configure", "verbosity_to_level", "LOGGER_NAME"]

#: Root of the repro logger hierarchy.
LOGGER_NAME = "repro"

#: Format used by :func:`configure`; relative timestamps in seconds line
#: up loosely with span durations in the same run.
_FORMAT = "%(relativeCreated)8.0fms %(levelname)-7s %(name)s: %(message)s"


def get_logger(name: str | None = None) -> logging.Logger:
    """Logger under the ``repro`` hierarchy.

    ``get_logger()`` returns the root ``repro`` logger;
    ``get_logger("memsim.cache")`` returns ``repro.memsim.cache``.  Names
    already starting with ``repro`` are used as-is, so
    ``get_logger(__name__)`` works from inside the package.
    """
    if not name:
        return logging.getLogger(LOGGER_NAME)
    if name == LOGGER_NAME or name.startswith(LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(LOGGER_NAME + "." + name)


def verbosity_to_level(verbosity: int) -> int:
    """Map a ``-q``/``-v`` count to a logging level.

    ``-q`` → ERROR, default → WARNING, ``-v`` → INFO, ``-vv`` → DEBUG.
    """
    if verbosity <= -1:
        return logging.ERROR
    if verbosity == 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


class _StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is when a record is emitted.

    Binding the stream at configure time would keep writing to a stream
    that has since been replaced and closed (a test's captured stderr).
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def configure(verbosity: int = 0, *, stream=None) -> logging.Logger:
    """Attach one stderr handler to the ``repro`` logger at ``verbosity``.

    Without ``stream`` the handler writes to whatever ``sys.stderr`` is
    at emit time.  Idempotent: reconfiguring replaces the handler
    installed by a prior call instead of stacking duplicates.  Returns the
    configured root repro logger.
    """
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(verbosity_to_level(verbosity))
    # Our handler is tagged so we never remove handlers someone else added.
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream) if stream is not None else _StderrHandler()
    handler.setFormatter(logging.Formatter(_FORMAT))
    handler._repro_obs_handler = True
    logger.addHandler(handler)
    # Stop records from also reaching the root logger's handlers (pytest's
    # capture handler, a host app's config) twice.
    logger.propagate = False
    return logger
