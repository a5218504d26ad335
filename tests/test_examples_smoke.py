"""Smoke tests: the runnable examples must complete and exit zero.

The realtime/replanning examples were made self-checking (they exit
nonzero on a budget violation or an invalid final path), so running them
as subprocesses is a real end-to-end test of the planner, the runtime, and
the deadline enforcement — not just an import check.  Each script runs
once per session: the tests that inspect its output share that run.
"""

import functools
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def _run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script",
    [
        "realtime_loop.py",
        "dynamic_replanning.py",
        "scenario_gallery.py",
        "overload_serving.py",
    ],
)
def test_example_exits_zero(script):
    proc = _run_example(script)
    assert proc.returncode == 0, (
        f"{script} exited {proc.returncode}\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert "FAIL" not in proc.stdout


def test_realtime_loop_reports_ladder():
    proc = _run_example("realtime_loop.py")
    assert proc.returncode == 0
    assert "degradation histogram" in proc.stdout
    assert "real-time budget holds" in proc.stdout


def test_overload_serving_reports_shedding():
    proc = _run_example("overload_serving.py")
    assert proc.returncode == 0
    assert "shed reasons" in proc.stdout
    assert "all overload contracts held" in proc.stdout
