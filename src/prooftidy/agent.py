"""Compiler-in-the-loop refactoring session over a frozen LLM.

One session drives a single theorem: segment the current proof, retrieve
strategies per segment under the user's objective, ask the planner for a
step sequence, and run its steps bottom-up as one chain of drafts, each
asked of the refactorer for a run of steps against the previous draft
and keeping every line outside those steps as that draft has it. The
chain is compiled once. While it fails, the lines it changed that an
error flags are put back as the proof had them, at no LLM call; only
when that gives no shorter proof that compiles is the debugger asked, a
bounded number of rounds.
A result is adopted only when it compiles and is strictly shorter. Every
plan is followed by a replan; the loop stops with fewer than two calls
left (a round needs one for its plan and one for a step), on reaching
the target length, or when the planner has nothing left to propose. A
fault outside the process (a missing toolchain, an exhausted script, an
unreachable provider) ends the session with the best proof so far.

The budget unit is one LLM call — planner, refactorer, debugger, and
corrective reparses all count; compiles are free. A plan's steps are
packed, bottom-up, into as many contiguous runs as there are calls left
(one step each when the calls suffice), each asked in one call, so no
planned step goes unasked. A faulty reply is salvaged before another
call is paid for: a cut-off plan keeps its complete steps, an altered
statement is put back, and so is a draft's edit outside its steps,
before any compile. With scripted LLM and compiler mocks a session is
byte-deterministic.

Where each rule lives: retrieval rules in ``retrieval.retrieve``, and
which version it filters by in ``ObjectiveSpec.filter_version``; what a
theorem's statement is in ``tokenizer.statement_of``, which
``statement_preserved`` applies against the session's input, scanning
each text once; each text's length in ``run_session``'s ``length`` memo;
what an error is in ``CompileResult.errors()``; what a plan reply holds,
whole or cut off, in ``_parse_plan`` (a cut-off array's complete steps
in ``prompts.leading_json_items``), and which of its steps are kept,
disjoint and in range, in ``_validate_steps``; a refactor or debugger
reply's candidate, with an altered statement put back as the input has
it, in ``_extract_candidate``, read by ``run_session``'s ``candidate_of``;
the budget (``left``), the transport retry and the trace in ``_Ledger``;
which of the spans' retrieved strategies the planner sees, and the ids
its ``retrieval`` event records, in ``_planner_strategies``; which
inputs a session refuses, the target toolchain, whether a round may
start, how many runs a plan's steps are packed into, where the chain
stops, in ``run_session``; the runs and their order in ``_runs``; a
run's refactor prompt in ``_run_fields``; the planner's call, its
corrective reparse and its warnings in its ``plan``; whether a run may
still be asked, its steps' ``step_attempted``, its refactor call and its
``step_skipped`` in its ``draft``; which of a draft's edits lie outside
its run's steps and are put back, and whether a kept one reaches above
them, in ``_splice_step``; which flagged lines of a failing candidate
are put back in ``_revert_flagged``; which chain line each draft line
came from, for both, in ``_aligned``; whether a text may replace the
current proof, be it a chain, a debugger reply or a put-back text, in
its ``admit``, the one acceptance rule; the chain's compile, the
put-back tried before each debugger call, the debugger's call, the
debug rounds, the chain's ``step_skipped`` and the one ``adoption`` in
its ``verify``, the one place that adopts; the compile memo, one check
per source, in its ``compile_source``; which faults end a session, in
``OUTSIDE_FAULTS``.
"""

from __future__ import annotations

import difflib
import functools
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Iterable

from .bank import REDUCTION_LEVELS, Bank
from .compiler import CompileRequest, CompileResult, Diagnostic, Verdict
from .errors import (
    LLMTransportError,
    PreconditionFailed,
    ProviderContractViolation,
    ProviderRejected,
    RetryableProviderError,
    ScriptExhausted,
    StatementMutation,
    StepFailed,
    ToolchainMissing,
)
from .prompts import (
    CORRECTIVE_SUFFIX,
    extract_fenced_block,
    extract_json_payload,
    format_history,
    format_strategies,
    leading_json_items,
    render,
)
from .retrieval import ObjectiveSpec, RankedStrategy, StrategyIndex, retrieve
from .tokenizer import (LENGTH_FAILURE_SENTINEL, line_count, proof_length,
                        segment, statement_of)


class Termination(str, Enum):
    BUDGET_EXHAUSTED = "budget_exhausted"  # under two calls left for a round
    TARGET_REACHED = "target_reached"
    NO_VIABLE_PLAN = "no_viable_plan"
    CONVERGED = "converged"
    ENVIRONMENT_ERROR = "environment_error"


#: Window sizes that ``segment`` cuts the proof into. A window of size s
#: ends after a line whose hash is 0 mod s; it holds at least s // 2 lines
#: (the last window may hold fewer) and at most 2s.
CHUNK_SIZES = (5, 10, 20)

TARGET_LENGTH = 5     #: a session stops once the proof is this short
MAX_DEBUG_ROUNDS = 3  #: debugger calls per chain; reverts are free

#: Faults from outside the process that a port may raise. Each ends the
#: session with the best proof so far and an ``environment_error`` event.
OUTSIDE_FAULTS = (ToolchainMissing, ScriptExhausted, OSError,
                  RetryableProviderError, ProviderContractViolation,
                  ProviderRejected)


@dataclass(frozen=True)
class AgentConfig:
    budget: int = 30                 # LLM calls; a round needs two left
    objective: ObjectiveSpec = ObjectiveSpec()  # k caps the planner's strategies
    toolchain_version: str | None = None   # None: objective's, else compiler's

    def __post_init__(self):
        # A bool is no count, as for a plan step's line numbers.
        if type(self.budget) is not int or self.budget < 0:
            raise ValueError("budget must be an integer >= 0")
        if (self.toolchain_version and self.objective.target_version
                and self.toolchain_version != self.objective.target_version):
            raise ValueError("toolchain_version and objective.target_version "
                             "name different toolchains")


@dataclass(frozen=True)
class PlanStep:
    line_start: int
    line_end: int
    title: str
    reduction: str
    description: str


@dataclass(frozen=True)
class TraceEvent:
    kind: str
    detail: dict
    calls_used: int


@dataclass
class SessionTrace:
    events: list[TraceEvent] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]


@dataclass(frozen=True)
class SessionResult:
    final_proof: str
    initial_length: int
    final_length: int
    calls_used: int
    termination: Termination
    trace: SessionTrace

    def to_json(self) -> str:
        """The record's fields as JSON; ``termination`` dumps as its value."""
        return json.dumps(asdict(self), ensure_ascii=False, sort_keys=True,
                          indent=2)


class _OutOfBudget(Exception):
    """Internal: an LLM call was requested with no budget left."""


class _Ledger:
    """One session's LLM budget and trace. Counts every attempted call,
    retries a transport error at once while budget remains, and stamps
    each event with the calls used so far."""

    def __init__(self, llm, budget: int):
        self._llm = llm
        self._budget = budget
        self.used = 0
        self.trace = SessionTrace()

    @property
    def left(self) -> int:
        """The calls the budget still pays for."""
        return self._budget - self.used

    def complete(self, messages) -> str:
        while True:
            if not self.left:
                raise _OutOfBudget()
            self.used += 1
            try:
                return self._llm.complete(messages)
            except LLMTransportError as exc:
                self.add("warning", {"message": f"llm transport retry: {exc}"})

    def add(self, kind: str, detail: dict) -> None:
        assert self.left >= 0, "LLM call counter exceeded the budget"
        self.trace.events.append(TraceEvent(kind, detail, self.used))


def _line_number(value) -> int:
    """A plan step's line number, which must be a JSON integer: a float,
    a string or a boolean is no line."""
    if type(value) is not int:
        raise TypeError(f"line number {value!r} is not an integer")
    return value


def _validate_steps(payload: list, proof: str
                    ) -> tuple[list[PlanStep], list[str]]:
    """The payload's steps that are well formed, in range and disjoint,
    and a warning for each step dropped."""
    n_lines = line_count(proof)
    steps: list[PlanStep] = []
    warnings: list[str] = []
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict):
            warnings.append(f"step {i}: not an object, dropped")
            continue
        try:
            step = PlanStep(
                line_start=_line_number(entry["line_start"]),
                line_end=_line_number(entry["line_end"]),
                title=str(entry["title"]),
                reduction=str(entry["reduction"]).lower(),
                description=str(entry["description"]),
            )
        except (KeyError, TypeError, ValueError):
            warnings.append(f"step {i}: malformed fields, dropped")
            continue
        if step.reduction not in REDUCTION_LEVELS:
            warnings.append(f"step {i}: unknown reduction "
                            f"{step.reduction!r}, dropped")
            continue
        if not (1 <= step.line_start <= step.line_end <= n_lines):
            warnings.append(
                f"step {i}: lines {step.line_start}-{step.line_end} outside "
                f"the proof's {n_lines} lines, dropped"
            )
            continue
        # Disjoint steps run bottom-up keep each other's line numbers.
        if any(step.line_start <= kept.line_end
               and kept.line_start <= step.line_end for kept in steps):
            warnings.append(f"step {i}: lines {step.line_start}-"
                            f"{step.line_end} overlap a kept step, dropped")
            continue
        steps.append(step)
    return steps, warnings


def _parse_plan(raw: str, proof: str
                ) -> tuple[list[PlanStep], list[str]] | None:
    """The steps and warnings of the plan in ``raw``: its whole JSON
    payload when that is an array, else the complete steps at the head of
    a cut-off array; None when it holds neither, as for an object."""
    payload = extract_json_payload(raw)
    if isinstance(payload, list):
        return _validate_steps(payload, proof)
    kept = leading_json_items(raw)
    if not kept:
        return None
    steps, warnings = _validate_steps(kept, proof)
    return steps, [f"plan reply incomplete: kept {len(kept)} complete steps",
                   *warnings]


# A session guards every candidate against its input, so it scans that
# statement once; the memo holds the inputs of a few parallel sessions.
@functools.lru_cache(maxsize=8)
def _statement_of(original: str) -> tuple[str, str] | None:
    """``statement_of(original)``, memoised."""
    return statement_of(original)


def statement_preserved(original: str, candidate: str) -> bool:
    """Exact statement match modulo comments and whitespace runs.

    The original is scanned once per text. A candidate that starts with
    the original through its statement's ``:=`` has the same statement
    (``tokenizer.statement_of``) and is not scanned at all.
    """
    held = _statement_of(original)
    if held is None:
        return False
    prefix, statement = held
    if candidate.startswith(prefix):
        return True
    own = statement_of(candidate)
    return own is not None and own[1] == statement


def _extract_candidate(raw: str, original: str) -> tuple[str, bool]:
    """The reply's candidate, and whether its statement was put back: an
    altered one whose declaration splits gets ``original``'s text through
    the statement's ``:=`` in place of its own (``statement_of``)."""
    candidate = extract_fenced_block(raw, "lean4")
    if candidate is None:
        candidate = extract_fenced_block(raw, "lean")
    if candidate is None:
        raise StepFailed("reply contains no fenced lean4 block")
    if statement_preserved(original, candidate):
        return candidate, False
    held, own = _statement_of(original), statement_of(candidate)
    if held is None or own is None:
        raise StatementMutation("candidate altered the theorem statement")
    candidate = held[0] + candidate[len(own[0]):]
    assert statement_preserved(original, candidate)
    return candidate, True


def splice_error_markers(candidate: str, errors: list[Diagnostic]) -> str:
    """Wrap each error's span (its column to end of line) in
    <error></error> markers. Lines are numbered as Lean numbers them, by
    ``\n`` alone, so every byte outside the markers is kept."""
    lines = candidate.split("\n")
    by_line: dict[int, int] = {}
    for d in errors:
        if 1 <= d.line <= len(lines):
            col = by_line.get(d.line)
            by_line[d.line] = d.column if col is None else min(col, d.column)
    for line_no in sorted(by_line, reverse=True):
        text = lines[line_no - 1]
        col = min(max(by_line[line_no], 0), len(text))
        lines[line_no - 1] = text[:col] + "<error>" + text[col:] + "</error>"
    return "\n".join(lines)


def _aligned(old: list[str], new: list[str], head_max: int, tail_max: int
             ) -> list[tuple[str, int, int, int, int]]:
    """``difflib`` opcodes from ``old`` to ``new``, the agent's one line
    alignment. The first is their longest common head, of at most
    ``head_max`` lines, the last their longest common tail after it, of at
    most ``tail_max``, both ``equal`` and either empty; ``difflib`` aligns
    only the lines between, so none is matched to a copy in either."""
    head, stop = 0, min(head_max, len(old), len(new))
    while head < stop and old[head] == new[head]:
        head += 1
    tail, stop = 0, min(tail_max, len(old) - head, len(new) - head)
    while tail < stop and old[-1 - tail] == new[-1 - tail]:
        tail += 1
    i, j = len(old) - tail, len(new) - tail
    return [("equal", 0, head, 0, head), *(
        (tag, i1 + head, i2 + head, j1 + head, j2 + head)
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, old[head:i], new[head:j], autojunk=False).get_opcodes()),
        ("equal", i, len(old), j, len(new))]


def _revert_flagged(candidate: str, proof: str, errors: Iterable[Diagnostic]
                    ) -> tuple[str, list[int]] | None:
    """``candidate`` with each line that one of ``errors`` flags and the
    draft changed put back as ``proof`` has it, and those lines' numbers.

    The lines are aligned by ``_aligned``; a flagged line in a ``replace``
    hunk becomes that hunk's most alike ``proof`` line (the highest
    ``SequenceMatcher.ratio``, the first of equal ones). Lines are
    numbered as Lean numbers them, by ``\n`` alone, and every other line
    is kept byte for byte. None when no flagged line lies in a
    ``replace`` hunk, as for a timeout, which flags no line.
    """
    flagged, lines = {d.line for d in errors}, []
    old, new = proof.split("\n"), candidate.split("\n")
    for tag, i1, i2, j1, j2 in _aligned(old, new, len(old), len(old)):
        if tag != "replace":
            continue
        for j in range(j1, j2):
            if j + 1 in flagged:
                # A matcher caches what it learns of its second sequence.
                alike = difflib.SequenceMatcher(None, b=new[j])
                ratios = []
                for line in old[i1:i2]:
                    alike.set_seq1(line)
                    ratios.append(alike.ratio())
                new[j] = old[i1 + ratios.index(max(ratios))]
                lines.append(j + 1)
    return ("\n".join(new), lines) if lines else None


def _splice_step(chain: str, draft: str, steps: Iterable[PlanStep]
                 ) -> tuple[str, list[int] | None, bool]:
    """``draft`` with every change outside the lines of ``steps``, a run
    of disjoint steps, put back as ``chain`` has it, the numbers of the
    ``chain`` lines put back (None when nothing is), and whether a kept
    change reaches above the run's topmost step.

    A draft that keeps the chain's lines above the topmost step and below
    the lowest one, and each stretch between two steps in order, around
    any lines of its own, is returned as it is. Otherwise the lines are
    aligned by ``_aligned``, its head and tail capped at the run: a hunk
    whose chain lines meet a step's is kept, as is an insertion from just
    before a step's first line to just after its last; every other hunk
    is put back. Lines are numbered as Lean numbers them, by ``\n``
    alone, and every kept line is kept byte for byte.
    """
    old = chain.split("\n")
    spans = sorted((s.line_start - 1, s.line_end) for s in steps)
    top, end = spans[0][0], spans[-1][1]
    # Lines as text: "\n", then each line and a "\n", so matches are whole.
    text, head, tail = "\n".join(["", draft, ""]), *(
        "\n".join(["", *lines, ""]) for lines in (old[:top], old[end:]))
    at, stop = len(head) - 1, len(text) - len(tail) + 1
    if at < stop and text.startswith(head) and text.endswith(tail):
        for (_, b), (a, _) in zip(spans, spans[1:]):
            stretch = "\n".join(["", *old[b:a], ""])
            at = text.find(stretch, at, stop)
            if at < 0:
                break
            at += len(stretch) - 1
        else:
            return draft, None, False
    new = draft.split("\n")
    lines, restored, above = [], None, False
    for tag, i1, i2, j1, j2 in _aligned(old, new, top, len(old) - end):
        if tag == "equal" or any(a <= i1 <= b if tag == "insert"
                                 else i1 < b and i2 > a for a, b in spans):
            lines += new[j1:j2]
            above = above or (tag != "equal" and i1 < top)
        else:
            lines += old[i1:i2]
            restored = [*(restored or ()), *range(i1 + 1, i2 + 1)]
    return "\n".join(lines), restored, above


def _runs(steps: list[PlanStep], n: int) -> list[list[PlanStep]]:
    """``steps`` bottom-up (descending ``line_start``) in ``n`` contiguous
    runs whose sizes differ by at most one."""
    ordered = sorted(steps, key=lambda s: -s.line_start)
    k = len(ordered)
    return [ordered[k * i // n:k * (i + 1) // n] for i in range(n)]


def _run_fields(run: list[PlanStep]) -> dict:
    """The refactor prompt's fields for ``run``. One step's are its own.
    Several span the lines from the topmost step's first to the lowest
    one's last, and one description names each step, top-down, as
    ``lines a-b: <description>``."""
    if len(run) == 1:
        return vars(run[0])
    run = sorted(run, key=lambda s: s.line_start)
    return {
        "line_start": run[0].line_start,
        "line_end": run[-1].line_end,
        "title": "; ".join(dict.fromkeys(s.title for s in run)),
        "reduction": min((s.reduction for s in run),
                         key=REDUCTION_LEVELS.index),
        "description": " | ".join(
            f"lines {s.line_start}-{s.line_end}: {s.description}"
            for s in run),
    }


def _planner_strategies(
    per_span: Iterable[tuple[object, list[RankedStrategy]]], k: int,
    bank: Bank,
) -> tuple[list[dict], list[str]]:
    """The planner's strategy entries and their ids: the spans' hits
    deduplicated by strategy id, each the best-scoring one (the first of
    equal ones) with its span, sorted by descending similarity, then id,
    and truncated to k."""
    best: dict[str, tuple[RankedStrategy, object]] = {}
    for span, results in per_span:
        for ranked in results:
            held = best.get(ranked.strategy_id)
            if held is None or ranked.similarity > held[0].similarity:
                best[ranked.strategy_id] = ranked, span
    merged = sorted(best.values(), key=lambda hit: (
        -hit[0].similarity, hit[0].strategy_id))[:k]
    entries = []
    for ranked, span in merged:
        strategy = bank.strategies[ranked.strategy_id]
        entries.append({
            "title": strategy.title,
            "description": strategy.description,
            "when_to_apply": strategy.when_to_apply,
            "application_guide": list(strategy.application_guide),
            "before": strategy.abstract_example[0],
            "after": strategy.abstract_example[1],
            "potential_reduction": strategy.potential_reduction,
            "similarity": ranked.similarity,
            "line_start": span.line_start,
            "line_end": span.line_end,
        })
    return entries, [ranked.strategy_id for ranked, _ in merged]


def run_session(
    proof: str,
    deps_context: str,
    config: AgentConfig,
    bank: Bank,
    index: StrategyIndex,
    llm,
    compiler,
) -> SessionResult:
    """Run the full refactoring loop for one theorem.

    A round starts only with at least two calls left, one for the plan
    and one for a step; with fewer, the session ends ``budget_exhausted``
    before it segments, embeds or retrieves. Each round retrieves
    strategies for the current proof and asks for a plan, whose steps are
    disjoint (``_validate_steps`` drops a step overlapping one kept before
    it). The steps run bottom-up (descending ``line_start``), so a draft
    never renumbers the lines of a step still to run, packed into
    ``min(len(steps), calls left)`` contiguous runs whose sizes differ by
    at most one (``_runs``): each run costs one call, so every step is
    asked, and a one-step run is asked as the step alone. A run of
    several steps gets one prompt whose target lines span the run and
    whose description names each step's lines (``_run_fields``). Each
    run's draft is asked against the previous one; its edits outside the
    run's steps are put back as the previous one has them, with a
    ``warning``, and it is kept only when it is then strictly shorter;
    nothing is compiled yet. The chain stops early once a kept edit
    reaches a line above its run's topmost step (one change spanning that
    step's first line and lines above it), or at ``TARGET_LENGTH``. The
    chain is then compiled once. While it fails, the lines it changed
    that an error flags are put back as the current proof has them, at no
    call; otherwise the debugger is asked about the failing text, up to
    ``MAX_DEBUG_ROUNDS`` rounds, and each failing reply is tried the same
    way. Every reply is guarded against the input's statement. ``admit``
    is the one rule for whether a text replaces the current proof: it
    keeps the input's statement, is strictly shorter and compiles on the
    target. ``verify`` is the one place that adopts. If the budget runs
    out mid-plan (a transport retry spends a call too), the drafts so far
    are still compiled and may be adopted. A plan cut by the budget,
    before it was asked or while it ran, records no ``plan_failed``.

    The input proof must compile under the target toolchain; sessions are
    strictly sequential internally, but many sessions may run in parallel
    over a shared bank and index.

    Raises:
        PreconditionFailed: before any call, compile or embedding, the
            input has no statement or measures ``LENGTH_FAILURE_SENTINEL``;
            after its one compile, the input proof does not compile.
    """
    if index.embedder is None:
        raise ValueError("index must be built with StrategyIndex.build "
                         "(it carries the query embedder)")
    # Every check compiles on the target toolchain: the one the config
    # names, else the compiler's default.
    version = (config.toolchain_version or config.objective.target_version
               or compiler.default_version)
    # Each text is measured once; ``proof_length`` is looked up here, so a
    # wrapper installed over the module's name sees every measurement.
    length = functools.cache(proof_length)
    initial_length = length(proof)
    if _statement_of(proof) is None:
        raise PreconditionFailed("input is not a declaration with a statement")
    if initial_length == LENGTH_FAILURE_SENTINEL:
        raise PreconditionFailed("input proof's length cannot be measured")
    ledger = _Ledger(llm, config.budget)
    deps = deps_context or "(none provided)"
    # Source text -> its check. Version and timeout are fixed for the
    # session, so the source alone is the key; a check that raises is not
    # kept, a timeout is.
    compiled: dict[str, CompileResult] = {}

    def compile_source(source: str) -> tuple[CompileResult, dict]:
        """The check of ``source``, and its verdict as a trace detail,
        ``cached`` when the memo already held it."""
        if source in compiled:
            result = compiled[source]
            return result, {"verdict": result.verdict.value, "cached": True}
        result = compiled[source] = compiler.check(CompileRequest(
            source=source, toolchain_version=version))
        return result, {"verdict": result.verdict.value}

    def candidate_of(raw: str) -> str:
        """A refactor or debugger reply's candidate, guarded against the
        input; warns when its statement was put back."""
        candidate, restored = _extract_candidate(raw, proof)
        if restored:
            ledger.add("warning", {"message": "candidate altered the theorem "
                                   "statement; put the statement back"})
        return candidate

    def plan(strategies: list[dict]) -> list[PlanStep]:
        """Ask the planner for steps on the current proof and record its
        reply's warnings. A reply with no complete step gets one corrective
        reparse, a fresh call read the same way; a second failure gives no
        step."""
        messages = [{"role": "user", "content": render(
            "planner", proof=current, deps=deps,
            strategies=format_strategies(strategies),
            history=format_history(history))}]
        raw = ledger.complete(messages)
        parsed = _parse_plan(raw, current)
        if parsed is None:
            parsed = _parse_plan(ledger.complete(messages + [
                {"role": "assistant", "content": raw},
                {"role": "user", "content": CORRECTIVE_SUFFIX},
            ]), current) or ([], ["plan unparseable after corrective retry"])
        steps, warnings = parsed
        for warning in warnings:
            ledger.add("warning", {"message": warning})
        return steps

    def draft(run: list[PlanStep], chain: str) -> tuple[str, bool] | None:
        """Record a ``step_attempted`` for each step of ``run`` and ask the
        refactorer for the run in one call against the chain's text,
        compiling nothing; with no call left, raise ``_OutOfBudget``
        before recording. The draft's edits outside the run's steps are
        put back as the chain has them (``_splice_step``), with a
        ``warning`` naming the chain lines put back; a put-back that alters
        the input's statement skips the run as a ``StatementMutation``.
        Returns the draft, and whether a kept edit reaches above the run's
        topmost step, when it is strictly shorter than ``chain``;
        otherwise records the run's one ``step_skipped`` and returns
        None."""
        if not ledger.left:
            raise _OutOfBudget()
        for step in run:
            ledger.add("step_attempted", {"step": dict(vars(step))})
        prompt = render("refactor", proof=chain, deps=deps, **_run_fields(run))
        try:
            candidate, restored, above = _splice_step(chain, candidate_of(
                ledger.complete([{"role": "user", "content": prompt}])), run)
            if restored is not None:
                if not statement_preserved(proof, candidate):
                    raise StatementMutation("putting back the edits outside "
                                            "the step altered the statement")
                ledger.add("warning", {
                    "message": "draft edited lines outside its step; put "
                               "the chain's back", "lines": restored})
        except (StepFailed, StatementMutation) as exc:
            skipped = {"reason": type(exc).__name__, "message": str(exc)}
        else:
            if length(candidate) < length(chain):
                return candidate, above
            skipped = {"reason": "candidate not shorter",
                       "candidate_length": length(candidate)}
        ledger.add("step_skipped", skipped)
        return None

    def admit(text: str) -> dict:
        """The one acceptance rule: ``{}`` when ``text`` may replace the
        current proof, since it keeps the input's statement, is strictly
        shorter and compiles on the target, checked in that order;
        otherwise why not (``rejected``, and a failed compile's verdict).
        Spends no LLM call."""
        if not statement_preserved(proof, text):
            return {"rejected": "statement altered"}
        if length(text) >= length(current):
            return {"rejected": "not shorter"}
        check, verdict = compile_source(text)
        return {} if check.ok else {"rejected": "does not compile", **verdict}

    def verify(chain: str, drafted: list[PlanStep]) -> bool:
        """Compile the chain of ``drafted`` steps and adopt what ``admit``
        takes: the one place that sets ``current``, extends ``history``
        and records an ``adoption``. While the text fails, its flagged
        lines are put back (``_revert_flagged``), with the budget spent
        too, and a ``revert`` records ``admit``'s answer; else the
        debugger is asked, for up to ``MAX_DEBUG_ROUNDS`` rounds the
        budget has, about the text with its errors marked and listed, or
        after a timeout unmarked with ``compilation timed out``; each
        failing reply is tried the same way. Returns whether it adopted;
        otherwise records the chain's one ``step_skipped``."""
        nonlocal current
        candidate, rounds, skipped = chain, 0, None
        try:
            while True:
                result, verdict = compile_source(candidate)
                ledger.add("compile_result", verdict)
                if result.ok:
                    # A reply keeps the statement, so only its length fails.
                    if admit(candidate):
                        skipped = {"reason": "candidate not shorter",
                                   "candidate_length": length(candidate)}
                    break
                put_back = _revert_flagged(candidate, current, result.errors())
                if put_back is not None:
                    reverted, lines = put_back
                    rejected = admit(reverted)
                    ledger.add("revert", {"lines": lines, **rejected})
                    if not rejected:
                        candidate = reverted
                        break
                if rounds == MAX_DEBUG_ROUNDS or not ledger.left:
                    skipped = {"reason": "no compiling candidate",
                               "debug_rounds": rounds}
                    break
                rounds += 1
                timeout = result.verdict == Verdict.TIMEOUT
                errors = [] if timeout else result.errors()
                prompt = render(
                    "debugger", prev_round_num=rounds,
                    marked_candidate=splice_error_markers(candidate, errors),
                    errors="compilation timed out" if timeout else "\n".join(
                        f"line {d.line}, column {d.column}: {d.message}"
                        for d in errors) or "compilation failed")
                raw = ledger.complete([{"role": "user", "content": prompt}])
                ledger.add("debug_round", {"round": rounds})
                candidate = candidate_of(raw)
        except (StepFailed, StatementMutation) as exc:
            skipped = {"reason": type(exc).__name__, "message": str(exc),
                       "debug_rounds": rounds}
        if skipped:
            ledger.add("step_skipped", skipped)
            return False
        current = candidate
        history.extend(f"({s.title} @ {s.line_start}-{s.line_end}, Success)"
                       for s in drafted)
        ledger.add("adoption", {
            "steps": [dict(vars(s)) for s in drafted],
            "new_length": length(current),
            "debug_rounds": rounds,
        })
        return True

    current = proof
    history: list[str] = []
    # Span text -> its retrieval. Every query of a session sees the same
    # index and objective, so a span text is embedded and retrieved once.
    # Windows away from an adopted edit keep their text, so after an
    # adoption only the windows it touched and the whole proof are new.
    retrieved: dict[str, list[RankedStrategy]] = {}
    termination: Termination
    ledger.add("session_start", {
        "initial_length": initial_length,
        "toolchain_version": version,
        "objective": config.objective.mode.value,
    })

    try:
        precheck, _ = compile_source(proof)
        if not precheck.ok:
            raise PreconditionFailed(
                f"input proof does not compile under {version}: "
                f"{[d.message for d in precheck.errors()][:3]}"
            )
        while True:
            left = ledger.left
            # With no call left the session ends exhausted, at the target too.
            if left and length(current) <= TARGET_LENGTH:
                # Every adoption is strictly shorter.
                termination = (Termination.TARGET_REACHED
                               if length(current) < initial_length
                               else Termination.CONVERGED)
                break
            if left < 2:  # a round needs one plan and one step
                termination = Termination.BUDGET_EXHAUSTED
                break

            spans = segment(current, list(CHUNK_SIZES))
            fresh = list(dict.fromkeys(
                s.text for s in spans if s.text not in retrieved))
            if fresh:
                for text, vector in zip(fresh, index.embedder.embed(fresh)):
                    retrieved[text] = retrieve(index, bank, vector,
                                               config.objective)
            per_span = [(span, retrieved[span.text]) for span in spans]
            # The version filter may leave a span with no strategies.
            if config.objective.filter_version is not None:
                for span, results in per_span:
                    if not results:
                        ledger.add("warning", {
                            "message": "version filter left no strategies "
                                       "for a segment; proceeding without "
                                       "retrieval",
                            "span": [span.line_start, span.line_end],
                        })
            strategies, ids = _planner_strategies(
                per_span, config.objective.k, bank)
            ledger.add("retrieval", {"strategy_ids": ids})

            steps = plan(strategies)
            if not steps:
                ledger.add("plan_empty", {})
                termination = Termination.NO_VIABLE_PLAN
                break
            ledger.add("plan_issued",
                       {"steps": [dict(vars(s)) for s in steps]})

            # Bottom-up: a draft never renumbers the lines of a step still
            # to run, since a plan's steps are disjoint. Each run is one
            # call, so every step is asked; with no call left, the one
            # run's draft raises ``_OutOfBudget``.
            chain = current
            drafted: list[PlanStep] = []
            exhausted = False  # the budget cut this plan
            for run in _runs(steps, min(len(steps), ledger.left) or 1):
                try:  # transport retries may have spent the budget
                    made = draft(run, chain)
                except _OutOfBudget:
                    exhausted = True
                    break
                if made is None:
                    continue
                chain, edited_above = made
                drafted += run
                if edited_above or length(chain) <= TARGET_LENGTH:
                    break
            # With the budget spent, the drafts so far are still compiled:
            # compiles are free.
            if not (drafted and verify(chain, drafted)) and not exhausted:
                history.append(f"(plan of {len(steps)} steps, Failed)")
                ledger.add("plan_failed", {"steps": len(steps)})
    except _OutOfBudget:
        termination = Termination.BUDGET_EXHAUSTED
    except OUTSIDE_FAULTS as exc:
        ledger.add("environment_error", {"type": type(exc).__name__,
                                         "message": str(exc)})
        termination = Termination.ENVIRONMENT_ERROR

    ledger.add("termination", {"reason": termination.value})
    assert length(current) <= initial_length
    return SessionResult(
        final_proof=current,
        initial_length=initial_length,
        final_length=length(current),
        calls_used=ledger.used,
        termination=termination,
        trace=ledger.trace,
    )
