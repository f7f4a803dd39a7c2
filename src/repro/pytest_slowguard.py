"""Pytest plugin guarding the ``slow`` marker discipline.

Tier-1 (plain ``pytest -x -q``) deselects ``slow``-marked tests
(see ``[tool.pytest.ini_options]`` in ``pyproject.toml``), which only
keeps the default suite fast if slow tests actually carry the marker.
This plugin closes that loop at runtime:

* every *unmarked* test whose call phase exceeds
  ``$REPRO_SLOW_TEST_THRESHOLD_S`` (default 5 s) is collected and
  listed in a terminal-summary section;
* with ``REPRO_ENFORCE_SLOW_MARKERS=1`` (set in CI, where a quietly
  slow test would tax every future run) such a test is *failed* with a
  message telling the author to mark it.

The hooks are imported into ``tests/conftest.py``; the enforcement
mechanism itself is proven by ``tests/test_marker_discipline.py``,
which runs a deliberately slow unmarked test under a tiny threshold in
a subprocess and asserts it fails.
"""

from __future__ import annotations

import os

import pytest

#: call-phase duration above which an unmarked test is an offender
DEFAULT_THRESHOLD_S = 5.0


def _threshold_s() -> float:
    raw = os.environ.get("REPRO_SLOW_TEST_THRESHOLD_S")
    if not raw:
        return DEFAULT_THRESHOLD_S
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_THRESHOLD_S


def _enforcing() -> bool:
    return os.environ.get("REPRO_ENFORCE_SLOW_MARKERS") == "1"


def pytest_configure(config):
    config._repro_unmarked_slow = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    threshold = _threshold_s()
    if report.duration <= threshold:
        return
    if item.get_closest_marker("slow"):
        return
    offenders = getattr(item.config, "_repro_unmarked_slow", None)
    if offenders is not None:
        offenders.append((report.nodeid, report.duration))
    if _enforcing() and report.passed:
        report.outcome = "failed"
        report.longrepr = (
            f"{report.nodeid} took {report.duration:.2f}s "
            f"(> {threshold:g}s) without @pytest.mark.slow; "
            "mark it so tier-1 stays fast "
            "(REPRO_ENFORCE_SLOW_MARKERS=1 makes this an error)"
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    offenders = getattr(config, "_repro_unmarked_slow", [])
    if not offenders:
        return
    terminalreporter.section(
        "unmarked slow tests (add @pytest.mark.slow)"
    )
    for nodeid, duration in sorted(
        offenders, key=lambda pair: -pair[1]
    ):
        terminalreporter.line(f"{duration:8.2f}s  {nodeid}")
