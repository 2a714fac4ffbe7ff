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
def _fence(tag: str) -> re.Pattern:
    return re.compile(r"```" + re.escape(tag) + r"[ \t]*\n(.*?)```", re.DOTALL)


def extract_fenced_block(text: str, tag: str) -> str | None:
    """Content of the LAST ``` fence with the given tag, or None.

    Taking the last block tolerates models that restate the input before
    answering.
    """
    matches = _fence(tag).findall(text)
    if not matches:
        return None
    return matches[-1].rstrip("\n")


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
    except json.JSONDecodeError:
        return None


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
