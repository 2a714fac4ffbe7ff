"""Tests of the benchmark's own parts: generator, oracle and responder.

    python3 -m pytest -q sessionbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from prooftidy.agent import statement_preserved  # noqa: E402
from prooftidy.compiler import CompileRequest  # noqa: E402
from prooftidy.prompts import format_history, format_strategies, render  # noqa: E402

from gen import WORKLOADS, bank_records, theorems  # noqa: E402
from ports import OracleCompiler, Responder  # noqa: E402
from world import KIND_PHRASES, NEW_TO_OLD, VERSIONS, removable_kinds  # noqa: E402

SMALL = {name: dataclasses.replace(w, sessions=6, strategies=25)
         for name, w in WORKLOADS.items()}


def check(oracle, source, version):
    return oracle.check(CompileRequest(source=source, toolchain_version=version))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic_per_seed(name):
    w = SMALL[name]
    assert theorems(w, 3) == theorems(w, 3)
    assert bank_records(w, 3) == bank_records(w, 3)
    assert theorems(w, 3) != theorems(w, 4)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_planted_lines_are_exactly_the_removable_ones(name):
    for t in theorems(SMALL[name], 5):
        body = t["proof"].split("\n")[1:]
        kept = t["minimal_proof"].split("\n")[1:]
        removed = len(body) - len(kept)
        assert removed == len(removable_kinds(body)) > 0
        assert removable_kinds(kept) == {}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracle_accepts_input_and_minimal_proof(name):
    w = SMALL[name]
    ts = theorems(w, 7)
    oracle = OracleCompiler(ts, VERSIONS[0])
    for t in ts:
        assert check(oracle, t["proof"], w.target).ok
        assert check(oracle, t["minimal_proof"], w.target).ok


def test_oracle_rejects_missing_essential_line():
    ts = theorems(SMALL["bank10k_length"], 7)
    oracle = OracleCompiler(ts, VERSIONS[0])
    t = ts[0]
    lines = t["minimal_proof"].split("\n")
    dropped = lines[:2] + lines[3:]
    result = check(oracle, "\n".join(dropped), VERSIONS[0])
    assert not result.ok
    assert "unsolved goals" in result.errors()[0].message


def test_oracle_rejects_name_absent_on_target():
    w = SMALL["repair_version"]
    ts = theorems(w, 7)
    oracle = OracleCompiler(ts, VERSIONS[0])
    lines = ts[0]["proof"].split("\n")
    n, new = next((n, name) for n, line in enumerate(lines) for name in NEW_TO_OLD
                  if name in line)
    lines[n] = lines[n].replace(new, NEW_TO_OLD[new])
    broken = "\n".join(lines)
    result = check(oracle, broken, w.target)
    assert not result.ok
    error = result.errors()[0]
    assert (error.line, error.column) == (n + 1, lines[n].index(NEW_TO_OLD[new]))
    assert error.message == f"unknown identifier '{NEW_TO_OLD[new]}'"


def _planner_prompt(proof, kind, span):
    entry = {"title": f"{KIND_PHRASES[kind]}, variant 00001",
             "description": "d", "when_to_apply": "w",
             "application_guide": ["a"], "before": "  skip", "after": "",
             "potential_reduction": "high", "similarity": 0.5,
             "line_start": span[0], "line_end": span[1], "strategy_id": "x"}
    return render("planner", proof=proof, deps="(none provided)",
                  strategies=format_strategies([entry]), history=format_history([]))


def _ask(prompt, seed=1):
    return Responder(seed, WORKLOADS["repair_version"].faults).complete(
        [{"role": "user", "content": prompt}])


def test_responder_answer_depends_only_on_what_is_asked():
    t = next(t for t in theorems(SMALL["bank10k_length"], 2)
             if {"unused_have", "show"} <= set(removable_kinds(t["proof"].split("\n")[1:]).values()))
    n = len(t["proof"].split("\n"))
    prompt = _planner_prompt(t["proof"], "unused_have", (1, n))
    reworded = prompt.replace("You are optimizing a Lean 4 proof.",
                              "Here is a Lean 4 proof to tidy.").replace(
        "Propose a plan of refactoring steps", "Suggest refactoring steps")
    assert reworded != prompt
    assert _ask(reworded) == _ask(prompt)
    # Asking about other lines, or with another strategy, changes the answer.
    assert _ask(_planner_prompt(t["proof"], "show", (1, n))) != _ask(prompt)

    plan = json.loads(_ask(prompt).split("```json\n")[1].split("\n```")[0])
    step = plan[0]
    refactor = render("refactor", proof=t["proof"], deps="(none provided)", **step)
    candidate = _ask(refactor).split("```lean4\n")[1].split("\n```")[0]
    assert statement_preserved(t["proof"], candidate)
    assert len(candidate) < len(t["proof"])
    assert _ask(refactor.replace("Modify the\ntargeted section", "Edit the\nsection")) \
        == _ask(refactor)


def test_bench_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("data", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "repair_version",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
