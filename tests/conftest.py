"""Shared test plumbing: the acceptance-criteria recorder and its
one-line-per-criterion terminal summary, and a fresh block-splitting pool."""
from __future__ import annotations

from contextlib import contextmanager

import pytest

import collapselab.core as core

_RESULTS: dict = {}


@pytest.fixture
def criterion():
    """Context manager factory: wraps one acceptance criterion's checks and
    records pass/fail for the terminal summary."""

    @contextmanager
    def record(number: int, description: str):
        try:
            yield
        except BaseException:
            _RESULTS[number] = (description, False)
            raise
        _RESULTS[number] = (description, True)

    return record


@pytest.fixture
def fresh_pool(monkeypatch):
    """core's block-splitting thread pool, not yet built, for one test; a
    pool the test builds is shut down after it."""
    monkeypatch.setattr(core, "_POOL", None)
    yield
    if core._POOL is not None:
        core._POOL.shutdown()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        description, ok = _RESULTS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d} [{status}] {description}")
