"""Prompt tests: reply parsing, template rendering, and the templates the
agent renders."""

from __future__ import annotations

import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooftidy import agent
from prooftidy.agent import AgentConfig, _extract_candidate, run_session
from prooftidy.llm import ScriptedLLM
from prooftidy.prompts import (
    _load,
    extract_fenced_block,
    extract_json_payload,
    leading_json_items,
    render,
)

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
    assert _extract_candidate(reply, PROOF) == (candidate, False)


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


def test_json_payload_nested_too_deep_is_no_payload():
    deep = "[" * 100_000 + "]" * 100_000
    assert extract_json_payload("```json\n" + deep + "\n```") is None
    assert leading_json_items("```json\n[1, " + deep) == [1]


@pytest.mark.parametrize("reply, items", [
    ("```json\n[1, 2]\n```", [1, 2]),
    ("Plan:\n```json\n[1, 2\n```", [1]),       # closed fence, cut array
    ("Plan:\n```json\n[1, 2]", [1, 2]),         # the fence never closes
    ("```json\n[1, {\"a\": 2}, 3", [1, {"a": 2}]),
    ('```json\n["ab", "c', ["ab"]),               # cut inside a string
    ("```json\n[1, 12", [1]),                     # no delimiter after 12
    ("```json\n[ [1, [2]] ,[3, 4", [[1, [2]]]),   # a nested array
    ("```json\n[1,]", [1]),
    ("```json\n[]\n```", []),
    ("```json\n{\"a\": [1, 2", []),              # not an array
    ("[1, 2", []),                                # no opener
    ("[1, 2]", []),
    ("```json\n[1]\n```\n```json\n[2, 3", [2]),  # the last opener wins
    ("```json\n[1, 2\n```\n```json\n[3]\n```", [3]),
    ("```json\n[1]```json\n[2, 3", [1]),         # a close opens no fence
])
def test_leading_json_items(reply, items):
    assert leading_json_items(reply) == items


JSON_ITEMS = st.recursive(
    st.integers(-10**6, 10**6) | st.booleans() | st.none()
    | st.text(alphabet="ab \\\"é", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="ab", max_size=2), inner, max_size=2),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(JSON_ITEMS, max_size=5), st.data())
def test_leading_json_items_keeps_each_element_a_delimiter_follows(items,
                                                                   data):
    parts = [json.dumps(item, ensure_ascii=False) for item in items]
    payload = "[" + ", ".join(parts) + "]"
    cut = data.draw(st.integers(0, len(payload)))
    closed = data.draw(st.booleans())
    reply = "Plan:\n```json\n" + payload[:cut] + ("\n```" if closed else "")
    # Element i is followed by its delimiter at this offset.
    ends = []
    for part in parts:
        ends.append((ends[-1] + 2 if ends else 1) + len(part))
    kept = sum(end < cut for end in ends)
    assert leading_json_items(reply) == items[:kept]


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
    monkeypatch.setattr(agent, "MAX_DEBUG_ROUNDS", 1)
    run_session(PROOF, "", AgentConfig(), bank, index, ScriptedLLM(script),
                compiler)
    shipped = {path.name.removesuffix(".txt")
               for path in resources.files("prooftidy.templates").iterdir()
               if path.name.endswith(".txt")}
    assert set(passed) == shipped == {"planner", "refactor", "debugger"}
    for name, keys in passed.items():
        assert _placeholders(name) == keys
