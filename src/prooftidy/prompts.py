"""Prompt templates and response-parsing helpers for every LLM role."""

from __future__ import annotations

import functools
import json
import re
from importlib import resources
from string import Template


@functools.lru_cache(maxsize=None)
def _load(name: str) -> Template:
    text = resources.files("prooftidy.templates").joinpath(f"{name}.txt").read_text(
        encoding="utf-8"
    )
    return Template(text)


def render(name: str, **values) -> str:
    return _load(name).substitute(**values)


@functools.lru_cache(maxsize=None)
def _opener(tag: str) -> re.Pattern:
    return re.compile(r"```" + re.escape(tag) + r"[ \t]*\n")


def _fences(text: str, tag: str):
    """(start, close) of each fence with the given tag, in order: its
    content runs from its opener's newline to the next ```, and the search
    for the next opener resumes after that close. An opener with no close
    after it, ``close`` -1, ends the search: no later opener has one."""
    opener = _opener(tag)
    pos = 0
    while (m := opener.search(text, pos)) is not None:
        close = text.find("```", m.end())
        yield m.end(), close
        if close < 0:
            return
        pos = close + 3


def extract_fenced_block(text: str, tag: str) -> str | None:
    """Content of the LAST closed ``` fence with the given tag, or None.

    Taking the last block tolerates models that restate the input before
    answering.
    """
    block = None
    for start, close in _fences(text, tag):
        if close >= 0:
            block = text[start:close]
    return None if block is None else block.rstrip("\n")


def extract_json_payload(text: str):
    """Parse the last ```json fence; falls back to a bare JSON document."""
    block = extract_fenced_block(text, "json")
    if block is None:
        stripped = text.strip()
        if stripped.startswith("[") or stripped.startswith("{"):
            block = stripped
        else:
            return None
    try:
        return json.loads(block)
    except (json.JSONDecodeError, RecursionError):   # nested too deep
        return None


_DECODER = json.JSONDecoder()
_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def leading_json_items(text: str) -> list:
    """The complete elements at the head of the array in the LAST ```json
    fence, closed or not, for a reply cut off mid-array; [] when there is
    none.

    The array runs to the fence's close, or to the end of the text when
    the fence never closes. An element counts only when a ``,`` or the
    closing ``]`` follows it, so a number cut short is not kept.
    """
    fences = list(_fences(text, "json"))
    if not fences:
        return []
    start, close = fences[-1]
    block = text[start:] if close < 0 else text[start:close]
    pos = _JSON_SPACE.match(block).end()
    if not block.startswith("[", pos):
        return []
    items = []
    while True:
        pos = _JSON_SPACE.match(block, pos + 1).end()
        try:
            item, pos = _DECODER.raw_decode(block, pos)
        except (json.JSONDecodeError, RecursionError):
            return items
        pos = _JSON_SPACE.match(block, pos).end()
        if not block.startswith((",", "]"), pos):
            return items
        items.append(item)
        if block[pos] == "]":
            return items


def format_strategies(entries: list[dict]) -> str:
    """Render retrieved strategies (with target spans) for the planner."""
    if not entries:
        return "(no strategies retrieved)"
    blocks = []
    for entry in entries:
        lines = [
            f"### {entry['title']}  [matched lines {entry['line_start']}-{entry['line_end']}, similarity {entry['similarity']:.3f}]",
            f"Description: {entry['description']}",
            f"When to apply: {entry['when_to_apply']}",
            "How to apply: " + "; ".join(entry["application_guide"]),
            f"Before:\n{entry['before']}",
            f"After:\n{entry['after']}",
            f"Expected reduction: {entry['potential_reduction']}",
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def format_history(events: list[str]) -> str:
    if not events:
        return "(none yet)"
    return "\n".join(f"- {event}" for event in events)


CORRECTIVE_SUFFIX = (
    "Your previous reply could not be parsed. Reply again following the "
    "required output format exactly, with the fenced block and nothing "
    "missing."
)
