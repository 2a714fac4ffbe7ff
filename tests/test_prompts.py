"""Prompt tests: reply parsing, template rendering, and the templates the
agent renders."""

from __future__ import annotations

import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooftidy import agent
from prooftidy.agent import AgentConfig, PlanStep, refactor_step, run_session
from prooftidy.llm import ScriptedLLM
from prooftidy.prompts import _load, extract_fenced_block, extract_json_payload, render

from test_agent import FAILING, PROOF, SHORTER, _candidate, _plan, _world


def test_fenced_block_is_the_last_one_with_the_tag():
    text = ("```lean4\nfirst\n```\nthen\n```json\n[1]\n```\n"
            "```lean4  \nsecond\n\n```\n")
    assert extract_fenced_block(text, "lean4") == "second"
    assert extract_fenced_block(text, "json") == "[1]"
    assert extract_fenced_block(text, "python") is None


def regex_fenced_block(text: str, tag: str) -> str | None:
    """The last fenced block found by a lazy regex over the whole reply."""
    fence = re.compile(r"```" + re.escape(tag) + r"[ \t]*\n(.*?)```", re.DOTALL)
    matches = fence.findall(text)
    return matches[-1].rstrip("\n") if matches else None


FENCE_PIECES = ["```lean4", "```lean", "```json", "```", "``", "`", " ",
                "\t", "\n", "\n\n", "x", "theorem t := by", "[1]",
                "```lean4 \t\n", "```json\n", "```lean\n", "\n```"]
replies = st.lists(st.sampled_from(FENCE_PIECES)
                   | st.text(alphabet="`lean4json \t\nx", max_size=6),
                   max_size=24).map("".join)


@settings(max_examples=500, deadline=None)
@given(replies)
def test_fenced_block_equals_the_lazy_regex(text):
    for tag in ("lean", "lean4", "json"):
        assert extract_fenced_block(text, tag) == regex_fenced_block(text, tag)


@pytest.mark.parametrize("text, block", [
    ("```lean4\nA```lean4\nB```", "A"),  # a close does not open a fence
    ("```lean4\nA\n```\n```lean4\nunclosed", "A"),
    ("```lean4 \t \nA\n\n```", "A"),
    ("```lean4\n```", ""),
    ("```lean4 x\nA\n```", None),  # text after the tag: no opener
    ("```lean4", None),
])
def test_fenced_block_edge_cases(text, block):
    assert extract_fenced_block(text, "lean4") == block
    assert regex_fenced_block(text, "lean4") == block


@pytest.mark.parametrize("reply, candidate", [
    ("```lean\n" + SHORTER + "\n```", SHORTER),
    # lean4 wins over lean, whichever comes last.
    ("```lean4\n" + SHORTER + "\n```\n```lean\n" + PROOF + "\n```", SHORTER),
])
def test_refactor_reply_falls_back_from_lean4_to_lean(reply, candidate):
    step = PlanStep(2, 5, "drop", "high", "remove redundant lines")
    assert refactor_step(PROOF, step, ScriptedLLM([reply])) == candidate


@pytest.mark.parametrize("reply, payload", [
    ('```json\n[{"a": 1}]\n```', [{"a": 1}]),
    ('  {"a": [1, 2]}\n', {"a": [1, 2]}),
    ("[1, 2]", [1, 2]),
    ("```json\n[1, 2\n```", None),
    ("{not json}", None),
    ("Here is the plan: [1]", None),
])
def test_json_payload_falls_back_to_a_bare_document(reply, payload):
    assert extract_json_payload(reply) == payload


def test_render_raises_on_a_missing_placeholder():
    with pytest.raises(KeyError):
        render("debugger", prev_round_num=1, marked_candidate="x")


def _placeholders(name: str) -> set[str]:
    template = _load(name)
    return {m.group("named") or m.group("braced")
            for m in template.pattern.finditer(template.template)
            if m.group("named") or m.group("braced")}


def test_agent_renders_every_template_with_exactly_its_placeholders(monkeypatch):
    passed: dict[str, set[str]] = {}

    def recording_render(name, **values):
        passed.setdefault(name, set(values))
        assert set(values) == passed[name]
        return render(name, **values)

    monkeypatch.setattr(agent, "render", recording_render)
    bank, index, compiler, _ = _world()
    # Plan, a failing candidate, its repair: one render of each role.
    script = [_plan(2, 5), _candidate(FAILING), _candidate(SHORTER)]
    config = AgentConfig(target_length=5, max_debug_rounds=1)
    run_session(PROOF, "", config, bank, index, ScriptedLLM(script), compiler)
    shipped = {path.name.removesuffix(".txt")
               for path in resources.files("prooftidy.templates").iterdir()
               if path.name.endswith(".txt")}
    assert set(passed) == shipped == {"planner", "refactor", "debugger"}
    for name, keys in passed.items():
        assert _placeholders(name) == keys
