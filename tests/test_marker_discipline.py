"""The slow marker split that keeps tier-1 fast.

Three layers are pinned here: the markers are registered and wired
into ``addopts``; the default collection and the marked collection
partition the suite (no marked test leaks into tier-1); and the
slowguard plugin actually fails an unmarked-but-slow test when
enforcement is on, so the split cannot rot silently.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _run_pytest(args, cwd, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_ENFORCE_SLOW_MARKERS", None)
    env.pop("REPRO_SLOW_TEST_THRESHOLD_S", None)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


class _CollectionRecorder:
    """Captures the selected item ids of a collect-only session."""

    def __init__(self):
        self.ids = []

    def pytest_collection_finish(self, session):
        self.ids = [item.nodeid for item in session.items]


def _collect_ids(extra_args):
    recorder = _CollectionRecorder()
    # in-process: the test modules are already imported, so a second
    # collection pass is cheap (a subprocess would re-import the world)
    code = pytest.main(
        [
            "--collect-only",
            "-q",
            "-p",
            "no:cacheprovider",
            *extra_args,
        ],
        plugins=[recorder],
    )
    assert code == 0, f"collection failed with exit code {code}"
    return set(recorder.ids)


def test_markers_registered(request):
    registered = "\n".join(request.config.getini("markers"))
    assert "slow:" in registered


def test_addopts_deselect_slow():
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "addopts = \"-q -m 'not slow'\"" in text


def test_default_and_marked_collections_partition_the_suite():
    tests_dir = str(REPO_ROOT / "tests")
    tier1 = _collect_ids([tests_dir])
    excluded = _collect_ids(["-m", "slow", tests_dir])
    everything = _collect_ids(["-m", "", tests_dir])
    assert tier1, "tier-1 collected nothing"
    # the slow full-sweep gate test is out of tier-1 but reachable
    # through its marker
    assert any("test_gate.py" in nodeid for nodeid in excluded)
    assert tier1.isdisjoint(excluded)
    # nothing falls through the split entirely
    assert tier1 | excluded == everything


# ---------------------------------------------------------------------------
# slowguard enforcement (proven in a scratch pytest run)
# ---------------------------------------------------------------------------
_SCRATCH_CONFTEST = (
    "from repro.pytest_slowguard import (\n"
    "    pytest_configure,\n"
    "    pytest_runtest_makereport,\n"
    "    pytest_terminal_summary,\n"
    ")\n"
)


def _scratch_run(tmp_path, test_source, extra_env):
    (tmp_path / "conftest.py").write_text(_SCRATCH_CONFTEST)
    (tmp_path / "test_scratch.py").write_text(
        textwrap.dedent(test_source)
    )
    return _run_pytest(["-q", "."], cwd=tmp_path, extra_env=extra_env)


def test_unmarked_slow_test_fails_under_enforcement(tmp_path):
    proc = _scratch_run(
        tmp_path,
        """
        import time

        def test_dawdles():
            time.sleep(0.3)
        """,
        {
            "REPRO_ENFORCE_SLOW_MARKERS": "1",
            "REPRO_SLOW_TEST_THRESHOLD_S": "0.1",
        },
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "without @pytest.mark.slow" in proc.stdout


def test_marked_slow_test_passes_under_enforcement(tmp_path):
    proc = _scratch_run(
        tmp_path,
        """
        import time

        import pytest

        @pytest.mark.slow
        def test_dawdles():
            time.sleep(0.3)
        """,
        {
            "REPRO_ENFORCE_SLOW_MARKERS": "1",
            "REPRO_SLOW_TEST_THRESHOLD_S": "0.1",
        },
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_unmarked_slow_test_only_warns_by_default(tmp_path):
    proc = _scratch_run(
        tmp_path,
        """
        import time

        def test_dawdles():
            time.sleep(0.3)
        """,
        {"REPRO_SLOW_TEST_THRESHOLD_S": "0.1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "unmarked slow tests" in proc.stdout


def test_fast_tests_stay_silent(tmp_path):
    proc = _scratch_run(
        tmp_path,
        """
        def test_quick():
            assert True
        """,
        {
            "REPRO_ENFORCE_SLOW_MARKERS": "1",
            "REPRO_SLOW_TEST_THRESHOLD_S": "0.1",
        },
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "unmarked slow tests" not in proc.stdout
