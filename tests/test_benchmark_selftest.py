"""The benchmark harness still binds every function and check it traces."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # The self-test traces a tiny run and fails on any traced target the
    # package no longer binds, e.g. a renamed function or verify check.
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
