"""Smoke test of ``benchmarks/session_digests.py`` on a small copy of each
workload: the tool that shows a change keeps every session's bytes must
itself run, repeat, and report no session that raised. And
``benchmarks/compare_digests.py`` on small synthetic outputs: it lists
exactly the sessions that differ and each side's means."""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
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


# --- benchmarks/compare_digests.py --------------------------------------------

@pytest.fixture(scope="module")
def compare_digests():
    spec = importlib.util.spec_from_file_location(
        "compare_digests", ROOT / "benchmarks" / "compare_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(digest, tokens, planner, refactor, compiles):
    return {"sha256": digest, "tokens_saved": tokens,
            "llm_calls": planner + refactor,
            "calls_by_role": {"planner": planner, "refactor": refactor},
            "compiles": compiles}


DIGESTS = {
    "length": [_entry("a", 10, 1, 1, 2), _entry("b", 0, 2, 0, 1),
               _entry("c", 4, 1, 3, 4)],
    "version": [_entry("d", 6, 1, 1, 3)],
}


def _write(path, digests):
    path.write_text(json.dumps(digests, indent=1))
    return str(path)


def test_equal_digests_list_no_session(compare_digests, tmp_path, capsys):
    same = _write(tmp_path / "old.json", DIGESTS)
    assert compare_digests.main([same, _write(tmp_path / "new.json",
                                              DIGESTS)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["length", "version"]
    for side in report.values():
        assert side["differing"] == []
        assert side["old"] == side["new"]
    assert report["length"]["old"] == {
        "sessions": 3, "errors": 0, "tokens_saved": round(14 / 3, 6),
        "llm_calls": round(8 / 3, 6),
        "calls_by_role": {"planner": round(4 / 3, 6),
                          "refactor": round(4 / 3, 6)},
        "compiles": round(7 / 3, 6)}


def test_one_doctored_entry_is_listed_with_the_moved_means(compare_digests):
    doctored = copy.deepcopy(DIGESTS)
    doctored["length"][1] = _entry("e", 3, 2, 3, 3)
    report = compare_digests.compare(DIGESTS, doctored)
    assert report["length"]["differing"] == [1]
    assert report["version"]["differing"] == []
    old, new = report["length"]["old"], report["length"]["new"]
    assert (old["tokens_saved"], new["tokens_saved"]) == (
        round(14 / 3, 6), round(17 / 3, 6))
    assert (old["llm_calls"], new["llm_calls"]) == (round(8 / 3, 6),
                                                     round(11 / 3, 6))
    assert (old["calls_by_role"]["refactor"],
            new["calls_by_role"]["refactor"]) == (round(4 / 3, 6),
                                                  round(7 / 3, 6))
    assert new["calls_by_role"]["planner"] == old["calls_by_role"]["planner"]
    assert (old["compiles"], new["compiles"]) == (round(7 / 3, 6), 3.0)
    assert report["version"]["old"] == report["version"]["new"]


def test_a_session_that_raised_or_is_missing_differs(compare_digests):
    raised = {"error": "ValueError: x", "llm_calls": 0,
              "calls_by_role": {}, "compiles": 1}
    new = {"version": [raised, _entry("f", 6, 1, 1, 3)]}
    report = compare_digests.compare(DIGESTS, new)
    assert report["length"]["differing"] == [0, 1, 2]
    assert report["length"]["new"]["sessions"] == 0
    assert report["version"]["differing"] == [0, 1]
    side = report["version"]["new"]
    assert (side["errors"], side["tokens_saved"]) == (1, 6.0)
    assert side["calls_by_role"] == {"planner": 0.5, "refactor": 0.5}
