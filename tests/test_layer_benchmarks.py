"""Smoke test: every layer benchmark under ``benchmarks/`` still runs.

Runs them once each with timing disabled, in a child pytest, so a change to
a function they call is caught between benchmark recordings.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_layer_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", "benchmarks"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
