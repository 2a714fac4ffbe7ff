"""Layer microbenchmarks for prompt rendering and reply parsing.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_prompts.py

``test_render_planner`` times what one planning round costs before the
LLM call: ``format_strategies`` over the default k = 8 retrieved entries,
``format_history`` over four past rounds, and ``render("planner", ...)``
around research-style proofs of about 2, 8 and 16 kB (the tokenizer
benchmark's proofs). ``test_render_debugger`` times the prompt a debug
round builds on the same proofs with three errors: ``splice_error_markers``,
the listed messages and ``render("debugger", ...)``; the session
benchmark asks the debugger once at seeds 1-3 (``repair_version``, seed 1,
theorem 56), so it times this path alone.
``test_extract_json_payload`` parses a planner reply
of 1, 8 and 32 steps, written as the session benchmark's responder writes
it: a line of prose, then an indented array in a ```json fence.
``test_leading_json_items`` salvages the same replies cut at half their
length inside a closed fence, as the responder cuts a malformed plan.
``test_extract_fenced_block`` parses a refactor reply: a line of prose,
then the 2, 8 or 16 kB proof in a ```lean4 fence.
"""

from __future__ import annotations

import json

import pytest

from prooftidy.agent import splice_error_markers
from prooftidy.compiler import Diagnostic
from prooftidy.prompts import (
    extract_fenced_block,
    extract_json_payload,
    format_history,
    leading_json_items,
    format_strategies,
    render,
)
from test_bench_tokenizer import SIZES_KB, proof

K = 8


def entries() -> list[dict]:
    return [{
        "title": f"Collapse case split {i}",
        "description": f"Replace exhaustive case analysis {i} with one lemma.",
        "when_to_apply": "Matrix equality proved entry by entry",
        "application_guide": ["Delete the per-entry haves",
                              "Use ext and fin_cases"],
        "before": "have h1 ... have h4 ...",
        "after": "ext i j <;> simp",
        "potential_reduction": "medium",
        "similarity": 0.5 - i / 100,
        "line_start": 5 * i + 1,
        "line_end": 5 * i + 5,
        "strategy_id": f"s{i:04d}",
    } for i in range(K)]


HISTORY = ["(drop @ 2-5, Success)", "(plan of 3 steps, Failed)",
           "(merge haves @ 7-9, Success)", "(plan of 1 steps, Failed)"]


@pytest.mark.parametrize("kb", SIZES_KB)
def test_render_planner(benchmark, kb):
    text = proof(kb)
    retrieved = entries()

    def planner_prompt():
        return render("planner", proof=text, deps="(none provided)",
                      strategies=format_strategies(retrieved),
                      history=format_history(HISTORY))

    result = benchmark(planner_prompt)
    assert text in result and "similarity 0.430" in result


@pytest.mark.parametrize("kb", SIZES_KB)
def test_render_debugger(benchmark, kb):
    text = proof(kb)
    n_lines = text.count("\n") + 1
    errors = [Diagnostic(n_lines * i // 4, 2, "error",
                         f"unknown identifier 'h{i}'") for i in (1, 2, 3)]

    def debugger_prompt():
        return render("debugger", prev_round_num=1,
                      marked_candidate=splice_error_markers(text, errors),
                      errors="\n".join(
                          f"line {d.line}, column {d.column}: {d.message}"
                          for d in errors))

    result = benchmark(debugger_prompt)
    marked = splice_error_markers(text, errors)
    assert marked.count("<error>") == 3 and marked in result


def reply(n_steps: int) -> str:
    steps = [{"line_start": 3 * i + 2, "line_end": 3 * i + 4,
              "title": f"Drop redundant have {i}", "reduction": "high",
              "description": "the hypothesis is never used; delete it"}
             for i in range(n_steps)]
    payload = json.dumps(steps, indent=1, ensure_ascii=False)
    return "Plan:\n```json\n" + payload + "\n```"


@pytest.mark.parametrize("n_steps", [1, 8, 32])
def test_extract_json_payload(benchmark, n_steps):
    text = reply(n_steps)
    result = benchmark(extract_json_payload, text)
    assert len(result) == n_steps


@pytest.mark.parametrize("n_steps", [1, 8, 32])
def test_leading_json_items(benchmark, n_steps):
    opener = "Plan:\n```json\n"
    payload = reply(n_steps)[len(opener):-len("\n```")]
    text = opener + payload[:len(payload) // 2] + "\n```"
    result = benchmark(leading_json_items, text)
    assert result == json.loads(payload)[:n_steps // 2]


@pytest.mark.parametrize("kb", SIZES_KB)
def test_extract_fenced_block(benchmark, kb):
    text = proof(kb)
    reply = "Here is the refactored proof:\n```lean4\n" + text + "\n```\n"
    assert benchmark(extract_fenced_block, reply, "lean4") == text
