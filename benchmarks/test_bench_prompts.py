"""Layer microbenchmarks for prompt rendering and reply parsing.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_prompts.py

``test_render_planner`` times what one planning round costs before the
LLM call: ``format_strategies`` over the default k = 8 retrieved entries,
``format_history`` over four past rounds, and ``render("planner", ...)``
around research-style proofs of about 2, 8 and 16 kB (the tokenizer
benchmark's proofs). ``test_extract_json_payload`` parses a planner reply
of 1, 8 and 32 steps, written as the session benchmark's responder writes
it: a line of prose, then an indented array in a ```json fence.
"""

from __future__ import annotations

import json

import pytest

from prooftidy.prompts import (
    extract_json_payload,
    format_history,
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
