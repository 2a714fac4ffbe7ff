"""The benchmark's stand-ins for the program's ports: a responder ChatLLM,
an oracle compiler, and a counting wrapper around MockEmbedder.

Neither stand-in sleeps. With one client in a closed loop, a real port's
latency adds a constant per call; the call counts already report it.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter

from prooftidy.compiler import CompileResult, Verdict, parse_diagnostics
from prooftidy.embeddings import MockEmbedder
from prooftidy.errors import LLMTransportError

from world import (GENERIC_KINDS, KIND_PHRASES, NAME_RE, NEW_TO_OLD, RENAMES,
                   names_on, removable_kinds)

ROLES = ("planner", "refactor", "debugger", "corrective")
#: The planner puts redundant lines at most this many lines apart in one step.
STEP_GAP = 8

_STRATEGY_RE = re.compile(r"^### (.+?)  \[matched lines (\d+)-(\d+), similarity",
                          re.MULTILINE)
_FAILED_PLAN_RE = re.compile(r"^- \(plan of \d+ steps, Failed\)", re.MULTILINE)
_TARGET_RE = re.compile(r"^Target lines: (\d+)-(\d+)", re.MULTILINE)
_DESCRIPTION_RE = re.compile(r"^Description: (.*)$", re.MULTILINE)
_ROUND_RE = re.compile(r"\(round (\d+)\)")
_UNKNOWN_RE = re.compile(r"unknown identifier '([^']+)'")
_COMPILER_LINE_RE = re.compile(r"^line \d+, column \d+: ", re.MULTILINE)


def _proof_block(prompt: str) -> list[str]:
    """The proof in a prompt: from the ``theorem`` line to the next heading."""
    lines = prompt.split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith("theorem "))
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("## ")), len(lines))
    block = lines[start:end]
    while block and not block[-1].strip():
        block.pop()
    return block


def role_of(messages: list[dict]) -> str:
    if len(messages) > 1:
        return "corrective"
    prompt = messages[0]["content"]
    if _TARGET_RE.search(prompt):
        return "refactor"
    if _COMPILER_LINE_RE.search(prompt) or "<error>" in prompt:
        return "debugger"
    return "planner"


def _kind_of_title(title: str) -> str | None:
    return next((k for k, p in KIND_PHRASES.items() if title.startswith(p)), None)


class Responder:
    """A ChatLLM that answers from what each prompt asks.

    The planner reads the proof, the retrieved strategies and the matched
    spans, and plans one step per cluster of lines it can see are redundant:
    no-op and repeated tactics always, the other kinds only where a
    retrieved strategy of that kind matched the lines. The refactorer
    removes what its step names within the step's lines; the debugger
    renames unknown identifiers it knows the replacement for.

    Faults fire at the rates in ``faults`` (see ``gen.WORKLOADS``), drawn
    from a hash of the seed and of what is asked (the proof, the step, the
    round), never of the prompt's bytes, so rewording a template changes no
    answer. A transport error also hashes how often the same thing has been
    asked in this session, so a retry can succeed. One instance serves one
    session.
    """

    def __init__(self, seed: int, faults: dict):
        self.seed = seed
        self.faults = faults
        self.calls = 0
        self.calls_by_role: Counter = Counter()
        self.chars_by_role: Counter = Counter()
        self.transport_errors = 0
        self._asked: Counter = Counter()

    def _draw(self, *parts: object) -> float:
        h = hashlib.blake2b(repr((self.seed,) + parts).encode("utf-8"),
                            digest_size=8)
        return int.from_bytes(h.digest(), "big") / 2 ** 64

    def _fires(self, fault: str, *key: object) -> bool:
        rate = self.faults.get(fault, 0.0)
        return rate > 0.0 and self._draw(fault, *key) < rate

    def complete(self, messages: list[dict]) -> str:
        self.calls += 1
        role = role_of(messages)
        self.calls_by_role[role] += 1
        chars_role = "planner" if role == "corrective" else role
        self.chars_by_role[chars_role] += sum(len(m["content"]) for m in messages)
        prompt = messages[0]["content"]
        proof = _proof_block(prompt)
        key = (role, "\n".join(proof))
        self._asked[key] += 1
        if self._fires("transport", *key, self._asked[key]):
            self.transport_errors += 1
            raise LLMTransportError("stand-in transport failure")
        if role == "refactor":
            return self._refactor(prompt, proof)
        if role == "debugger":
            return self._debug(prompt, proof)
        return self._plan(prompt, proof, corrective=role == "corrective")

    def _plan(self, prompt: str, proof: list[str], corrective: bool) -> str:
        body = proof[1:]
        kinds = removable_kinds(body)
        spans_by_kind: dict[str, list[tuple[int, int]]] = {}
        for title, a, b in _STRATEGY_RE.findall(prompt):
            kind = _kind_of_title(title)
            if kind is not None:
                spans_by_kind.setdefault(kind, []).append((int(a), int(b)))
        passes = len(_FAILED_PLAN_RE.findall(prompt)) + 1
        plannable = []
        for i, kind in sorted(kinds.items()):
            line = i + 2   # proof line number: line 1 is the statement
            if kind in GENERIC_KINDS or any(
                    a <= line <= b for a, b in spans_by_kind.get(kind, ())):
                plannable.append((line, kind))
        groups: list[list[tuple[int, str]]] = []
        for line, kind in plannable:
            if groups and line - groups[-1][-1][0] <= STEP_GAP:
                groups[-1].append((line, kind))
            else:
                groups.append([(line, kind)])
        steps = []
        for group in groups:
            present = {kind for _, kind in group}
            named = [k for k in KIND_PHRASES if k in present]
            steps.append({
                "line_start": group[0][0],
                "line_end": group[-1][0],
                "title": KIND_PHRASES[named[0]],
                "reduction": ("high" if len(group) >= 3 else
                              "medium" if len(group) == 2 else "low"),
                "description": "Delete the redundant lines: "
                               + "; ".join(KIND_PHRASES[k] for k in named)
                               + f" (pass {passes})",
            })
        key = ("\n".join(proof), tuple(sorted(spans_by_kind.items())), passes)
        if steps and self._fires("bogus_step", *key):
            steps.append(dict(steps[0], line_start=len(proof) + 2,
                              line_end=len(proof) + 5))
        payload = json.dumps(steps, indent=1, ensure_ascii=False)
        if not corrective and self._fires("malformed_plan", *key):
            return "Plan:\n```json\n" + payload[:len(payload) // 2] + "\n```"
        return "Plan:\n```json\n" + payload + "\n```"

    def _refactor(self, prompt: str, proof: list[str]) -> str:
        a, b = map(int, _TARGET_RE.search(prompt).groups())
        m = _DESCRIPTION_RE.search(prompt)
        description = m.group(1) if m else ""
        asked = {k for k, p in KIND_PHRASES.items() if p in description}
        kinds = removable_kinds(proof[1:])
        drop = {i + 1 for i, k in kinds.items() if k in asked and a <= i + 2 <= b}
        lines = [line for i, line in enumerate(proof) if i not in drop]
        key = ("\n".join(proof), a, b, description)
        if self._fires("no_fence", *key):
            return "The lines can go; the proof is otherwise unchanged."
        if self._fires("statement_change", *key):
            lines[0] = lines[0].replace(" := by", " ∧ True := by", 1)
        elif self._fires("fails_on_target", *key):
            for i, line in enumerate(lines):
                new = next((n for n in NAME_RE.findall(line) if n in NEW_TO_OLD), None)
                if new is not None:
                    lines[i] = line.replace(new, NEW_TO_OLD[new])
                    break
        candidate = "\n".join(lines)
        return (f"Removing the redundant lines in {a}-{b}.\n\n"
                f"```lean4\n{candidate}\n```")

    def _debug(self, prompt: str, proof: list[str]) -> str:
        candidate = "\n".join(proof).replace("<error>", "").replace("</error>", "")
        unknown = _UNKNOWN_RE.findall(prompt)
        m = _ROUND_RE.search(prompt)
        if not self._fires("debug_unfixed", candidate, tuple(unknown),
                           m.group(1) if m else ""):
            for name in unknown:
                fix = RENAMES[name][0] if name in RENAMES else NEW_TO_OLD.get(name)
                if fix is not None:
                    candidate = re.sub(rf"(?<![\w.']){re.escape(name)}(?![\w.'])",
                                       fix, candidate)
        return f"The names were renamed upstream.\n\n```lean4\n{candidate}\n```"


class OracleCompiler:
    """Decides a verdict from the source alone.

    A source compiles when its first line is a known theorem's statement
    line, every essential line of that theorem is present in order, and
    every dotted name it uses exists on the requested toolchain. Errors go
    out as Lean-style ``file:line:col: error:`` text and come back through
    ``compiler.parse_diagnostics``, as with the real backend.
    """

    def __init__(self, theorems: list[dict], default_version: str):
        self.default_version = default_version
        self._essential = {t["statement"] + " by": t["essential"] for t in theorems}
        self._names: dict[str, frozenset[str]] = {}
        self.checks = 0
        self.failures = 0

    def check(self, req) -> CompileResult:
        self.checks += 1
        names = self._names.get(req.toolchain_version)
        if names is None:
            names = self._names[req.toolchain_version] = names_on(req.toolchain_version)
        lines = req.source.split("\n")
        errors = []
        essential = self._essential.get(lines[0])
        if essential is None:
            errors.append((1, 0, "unknown declaration"))
        for n, line in enumerate(lines[1:], start=2):
            for m in NAME_RE.finditer(line):
                if m.group() not in names:
                    errors.append((n, m.start(), f"unknown identifier '{m.group()}'"))
        if essential is not None:
            present = iter(line.strip() for line in lines[1:])
            missing = next((e for e in essential if e not in present), None)
            if missing is not None:
                errors.append((len(lines), 0, f"unsolved goals: no step `{missing}`"))
        if not errors:
            return CompileResult(verdict=Verdict.SUCCESS)
        self.failures += 1
        text = "\n".join(f"Main.lean:{n}:{c}: error: {msg}" for n, c, msg in errors)
        return CompileResult(verdict=Verdict.FAILURE,
                             diagnostics=tuple(parse_diagnostics(text)))


class CountingEmbedder(MockEmbedder):
    """MockEmbedder that counts the texts it embeds."""

    def __init__(self):
        super().__init__()
        self.texts = 0

    def embed(self, texts):
        self.texts += len(texts)
        return super().embed(texts)
