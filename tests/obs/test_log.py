"""Tests for the ``repro`` logger set-up (:mod:`repro.obs.log`)."""

import io
import logging
import sys

import pytest

from repro.obs.log import LOGGER_NAME, configure, get_logger


@pytest.fixture(autouse=True)
def restore_repro_logger():
    logger = logging.getLogger(LOGGER_NAME)
    handlers, level, propagate = list(logger.handlers), logger.level, logger.propagate
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)  # also clears the loggers' cached level checks
    logger.propagate = propagate


def test_handler_follows_replaced_stderr(monkeypatch):
    # A stream replaced and closed after configure() (a test's captured
    # stderr) must not swallow later records.
    first = io.StringIO()
    monkeypatch.setattr(sys, "stderr", first)
    configure(0)
    first.close()
    second = io.StringIO()
    monkeypatch.setattr(sys, "stderr", second)
    get_logger("obs.test").warning("after the swap")
    text = second.getvalue()
    assert "Logging error" not in text
    assert "WARNING repro.obs.test: after the swap" in text


def test_explicit_stream_is_kept(monkeypatch):
    stream = io.StringIO()
    configure(1, stream=stream)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    get_logger("obs.test").info("to the given stream")
    assert "repro.obs.test: to the given stream" in stream.getvalue()
