"""Smoke test of ``benchmarks/session_digests.py`` on a small copy of each
workload: the tool that shows a change keeps every session's bytes must
itself run, repeat, and report no session that raised."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def session_digests():
    """The tool, imported from its file; it puts ``sessionbench/`` on the
    path for its own imports, which is undone afterwards."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "session_digests", ROOT / "benchmarks" / "session_digests.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path


def test_digests_repeat_with_no_error_within_the_budget(session_digests):
    for name, workload in sorted(session_digests.run.WORKLOADS.items()):
        small = dataclasses.replace(
            workload, sessions=4, strategies=min(workload.strategies, 40))
        first = session_digests.digests(small, seed=1)
        assert session_digests.digests(small, seed=1) == first, name
        assert len(first) == small.sessions
        for entry in first:
            assert "error" not in entry, (name, entry)
            assert entry["tokens_saved"] >= 0
            assert 0 <= entry["llm_calls"] <= small.budget
            assert sum(entry["calls_by_role"].values()) == entry["llm_calls"]
            assert entry["compiles"] >= 1      # the input's precheck
