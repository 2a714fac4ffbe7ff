"""Compiler-in-the-loop refactoring session over a frozen LLM.

One session drives a single theorem: segment the current proof, retrieve
strategies per segment under the user's objective, ask the planner for a
step sequence, and run its steps bottom-up as one chain of drafts, each
asked of the refactorer against the previous draft. The chain is compiled
once. While it fails, the lines it changed that an error flags are put
back as the proof had them, at no LLM call; only when that gives no
shorter proof that compiles is the debugger asked, a bounded number of
rounds. A result is adopted only when it compiles and is strictly
shorter. Every plan is followed by a replan; the loop stops with fewer
than two calls left (a round needs one for its plan and one for a step),
on reaching the target length, or when the planner has nothing left to
propose. A fault outside the process (a missing toolchain, an exhausted
script, an unreachable provider) ends the session with the best proof so
far.

The budget unit is one LLM call — planner, refactorer, debugger, and
corrective reparses all count; compiles are free. A plan with more
steps than calls left asks only as many as the calls pay for, the ones
the planner rates highest (``REDUCTION_LEVELS`` order, ties in plan
order). A faulty reply is
salvaged before another call is paid for: a cut-off plan keeps its
complete steps, and an altered statement is put back. With scripted LLM
and compiler mocks a session is byte-deterministic.

Where each rule lives: retrieval rules in ``retrieval.retrieve``, and
which version it filters by in ``ObjectiveSpec.filter_version``; what a
theorem's statement is in ``tokenizer.statement_of``, which
``statement_preserved`` applies to each candidate, scanning each proof
text once; what a plan reply holds, whole or cut off, in ``_parse_plan``
(a cut-off array's complete steps in ``prompts.leading_json_items``), and
which of its steps are kept, disjoint and in range, in ``_validate_steps``;
putting an altered statement back in ``_extract_candidate``; the budget,
the transport retry and the trace in ``_Ledger``; whether a round may
start, which steps of a plan the budget pays for, the chain's order and
where it stops, in ``run_session``'s loop; one step's draft and
its ``step_skipped`` in its ``draft``; which lines of a failing candidate
are put back in ``_revert_flagged``, and whether that text is taken (it
keeps the statement, is shorter and compiles) in its ``revert``; the
chain's compile, the revert tried on every failing candidate before the
debugger, the debug rounds, the acceptance and the chain's
``step_skipped`` in ``verify``; the target
toolchain, the one every check compiles under, at the top of
``run_session``; the session's compile memo, one check per distinct
source, in its ``compile_source``; which faults end a session, in
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
    MalformedDeclaration,
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
from .tokenizer import line_count, proof_length, segment, statement_of


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

#: Faults from outside the process that a port may raise. Each ends the
#: session with the best proof so far and an ``environment_error`` event.
OUTSIDE_FAULTS = (ToolchainMissing, ScriptExhausted, OSError,
                  RetryableProviderError, ProviderContractViolation,
                  ProviderRejected)


@dataclass(frozen=True)
class AgentConfig:
    budget: int = 30                 # LLM calls; a round needs two left
    target_length: int = 5           # stop once the proof is this short
    max_debug_rounds: int = 3        # debugger calls per chain; reverts are free
    objective: ObjectiveSpec = ObjectiveSpec()  # k caps the planner's strategies
    toolchain_version: str | None = None   # None: objective's, else compiler's

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.target_length <= 0:
            raise ValueError("target_length must be positive")
        if self.max_debug_rounds < 0:
            raise ValueError("max_debug_rounds must be >= 0")
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
        self.budget = budget
        self.used = 0
        self.trace = SessionTrace()

    def complete(self, messages) -> str:
        while True:
            if self.used >= self.budget:
                raise _OutOfBudget()
            self.used += 1
            try:
                return self._llm.complete(messages)
            except LLMTransportError as exc:
                self.add("warning", {"message": f"llm transport retry: {exc}"})

    def add(self, kind: str, detail: dict) -> None:
        assert self.used <= self.budget, "LLM call counter exceeded the budget"
        self.trace.events.append(TraceEvent(kind, detail, self.used))


@dataclass
class PlanResult:
    steps: list[PlanStep]
    warnings: list[str] = field(default_factory=list)


def _line_number(value) -> int:
    """A plan step's line number, which must be a JSON integer: a float,
    a string or a boolean is no line."""
    if type(value) is not int:
        raise TypeError(f"line number {value!r} is not an integer")
    return value


def _validate_steps(payload, proof: str) -> PlanResult:
    if not isinstance(payload, list):
        return PlanResult([], ["plan payload is not a list"])
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
    return PlanResult(steps, warnings)


def _parse_plan(raw: str, proof: str) -> PlanResult | None:
    """The plan in ``raw``: its whole JSON payload, else the complete steps
    at the head of a cut-off array; None when it holds neither."""
    payload = extract_json_payload(raw)
    if payload is not None:
        return _validate_steps(payload, proof)
    kept = leading_json_items(raw)
    if not kept:
        return None
    result = _validate_steps(kept, proof)
    result.warnings.insert(
        0, f"plan reply incomplete: kept {len(kept)} complete steps")
    return result


def plan(proof: str, retrieved: list[dict], history: list[str], llm,
         deps_context: str = "") -> PlanResult:
    """Ask the planner for refactoring steps and validate the reply.

    A reply cut off mid-array keeps its complete steps. A reply with no
    complete step gets one corrective reparse (a fresh LLM call), whose
    reply is read the same way; a second failure yields the empty plan.
    """
    prompt = render(
        "planner",
        proof=proof,
        deps=deps_context or "(none provided)",
        strategies=format_strategies(retrieved),
        history=format_history(history),
    )
    messages = [{"role": "user", "content": prompt}]
    raw = llm.complete(messages)
    result = _parse_plan(raw, proof)
    if result is None:
        retry = messages + [
            {"role": "assistant", "content": raw},
            {"role": "user", "content": CORRECTIVE_SUFFIX},
        ]
        result = _parse_plan(llm.complete(retry), proof)
        if result is None:
            return PlanResult([], ["plan unparseable after corrective retry"])
    return result


# A session guards every candidate against its current proof; the memo
# holds the proofs of a few sessions running in parallel.
@functools.lru_cache(maxsize=8)
def _statement_of(original: str) -> tuple[str, str] | None:
    """``statement_of(original)``; None for a malformed declaration."""
    try:
        return statement_of(original)
    except MalformedDeclaration:
        return None


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
    try:
        return statement_of(candidate)[1] == statement
    except MalformedDeclaration:
        return False


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
    held = _statement_of(original)
    try:
        own_prefix = statement_of(candidate)[0]
    except MalformedDeclaration:
        own_prefix = None
    if held is None or own_prefix is None:
        raise StatementMutation("candidate altered the theorem statement")
    candidate = held[0] + candidate[len(own_prefix):]
    assert statement_preserved(original, candidate)
    return candidate, True


def refactor_step(proof: str, step: PlanStep, llm,
                  deps_context: str = "") -> tuple[str, bool]:
    """Execute one planned step; returns the candidate proof text and
    whether its statement was put back."""
    prompt = render(
        "refactor",
        proof=proof,
        deps=deps_context or "(none provided)",
        line_start=step.line_start,
        line_end=step.line_end,
        title=step.title,
        reduction=step.reduction,
        description=step.description,
    )
    raw = llm.complete([{"role": "user", "content": prompt}])
    return _extract_candidate(raw, proof)


def splice_error_markers(candidate: str,
                         diagnostics: list[Diagnostic]) -> str:
    """Wrap each offending span (diagnostic column to end of line) in
    <error></error> markers. Lines are numbered as Lean numbers them, by
    ``\n`` alone, so every byte outside the markers is kept."""
    lines = candidate.split("\n")
    by_line: dict[int, int] = {}
    for d in diagnostics:
        if d.severity != "error":
            continue
        if 1 <= d.line <= len(lines):
            col = by_line.get(d.line)
            by_line[d.line] = d.column if col is None else min(col, d.column)
    for line_no in sorted(by_line, reverse=True):
        text = lines[line_no - 1]
        col = min(max(by_line[line_no], 0), len(text))
        lines[line_no - 1] = text[:col] + "<error>" + text[col:] + "</error>"
    return "\n".join(lines)


def _revert_flagged(candidate: str, proof: str,
                    diagnostics: Iterable[Diagnostic]) -> str | None:
    """``candidate`` with each line that an error flags and the draft
    changed put back as ``proof`` has it.

    The lines are aligned by ``difflib``; a flagged line in a ``replace``
    hunk becomes that hunk's most alike ``proof`` line (the highest
    ``SequenceMatcher.ratio``, the first of equal ones). Lines are
    numbered as Lean numbers them, by ``\n`` alone, and every other line
    is kept byte for byte. None when no flagged line lies in a
    ``replace`` hunk, as for a timeout, which flags no line.
    """
    flagged = {d.line for d in diagnostics if d.severity == "error"}
    if not flagged:
        return None
    old, new = proof.split("\n"), candidate.split("\n")
    reverted = False
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, old, new, autojunk=False).get_opcodes():
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
                reverted = True
    return "\n".join(new) if reverted else None


def debug(candidate: str, compile_result: CompileResult, original: str,
          llm, prev_round_num: int = 1) -> tuple[str, bool]:
    """One localized repair round from compiler feedback; returns the
    repaired candidate, with ``original``'s statement, and whether that
    statement was put back."""
    if compile_result.verdict == Verdict.TIMEOUT:
        marked = candidate
        errors_text = "compilation timed out"
    else:
        errors = compile_result.errors()
        marked = splice_error_markers(candidate, errors)
        errors_text = "\n".join(
            f"line {d.line}, column {d.column}: {d.message}" for d in errors
        ) or "compilation failed"
    prompt = render(
        "debugger",
        prev_round_num=prev_round_num,
        marked_candidate=marked,
        errors=errors_text,
    )
    raw = llm.complete([{"role": "user", "content": prompt}])
    return _extract_candidate(raw, original)


def _merge_retrievals(
    per_span: Iterable[tuple[object, list[RankedStrategy]]], k: int
) -> list[tuple[RankedStrategy, object]]:
    """Deduplicate the spans' results by strategy id, keeping the
    best-scoring hit (the first of equal ones) and its span; sort by
    descending similarity, then id; truncate to k."""
    best: dict[str, RankedStrategy] = {}
    span_of: dict[str, object] = {}
    for span, results in per_span:
        for ranked in results:
            sid = ranked.strategy_id
            held = best.get(sid)
            if held is None or ranked.similarity > held.similarity:
                best[sid] = ranked
                span_of[sid] = span
    merged = sorted(best.values(),
                    key=lambda r: (-r.similarity, r.strategy_id))
    return [(ranked, span_of[ranked.strategy_id]) for ranked in merged[:k]]


def _strategy_entries(merged, bank: Bank) -> list[dict]:
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
    return entries


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
    it). Each step costs a call: when a plan has more steps than calls
    left, only that many are asked, the ones rated highest by
    ``reduction`` (``REDUCTION_LEVELS`` order, ties in the plan's order),
    and its ``plan_issued`` event lists the positions of the others
    (``unasked``). The asked steps run bottom-up (descending
    ``line_start``), so a draft never renumbers the lines of a step still
    to run. Each step's draft is asked against the previous one and is
    kept only when it is strictly shorter; nothing is compiled yet. The
    chain stops early once a draft edits a line above its step, or
    reaches ``target_length``. The chain is then compiled once. While it
    fails, the lines it changed that an error flags are put back as the
    current proof has them, at no call; that text is adopted when it keeps
    the statement, is shorter and compiles, and records a ``revert``.
    Otherwise the debugger is asked about the failing text, up to
    ``max_debug_rounds`` rounds, and each failing reply is tried the same
    way. A result is adopted when it compiles on the target and is
    shorter than the current proof. If the budget runs out
    mid-plan (a transport retry spends a call too), the drafts so far are
    still compiled and may be adopted. A plan cut by the budget, before
    it was asked or while it ran, records no ``plan_failed``.

    The input proof must compile under the target toolchain; sessions are
    strictly sequential internally, but many sessions may run in parallel
    over a shared bank and index.

    Raises:
        PreconditionFailed: the input proof does not compile.
    """
    embedder = getattr(index, "embedder", None)
    if embedder is None:
        raise ValueError("index must be built with StrategyIndex.build "
                         "(it carries the query embedder)")
    # Every check compiles on the target toolchain: the one the config
    # names, else the compiler's default.
    version = (config.toolchain_version or config.objective.target_version
               or compiler.default_version)
    ledger = _Ledger(llm, config.budget)
    # Source text -> its check. Version and timeout are fixed for the
    # session, so the source alone is the key; a check that raises is not
    # kept, a timeout is.
    compiled: dict[str, CompileResult] = {}

    def compile_source(source: str) -> tuple[CompileResult, bool]:
        """The check of ``source``, and whether the memo already held it."""
        if source in compiled:
            return compiled[source], True
        result = compiled[source] = compiler.check(CompileRequest(
            source=source, toolchain_version=version))
        return result, False

    def compile_candidate(candidate: str) -> CompileResult:
        result, cached = compile_source(candidate)
        detail = {"verdict": result.verdict.value}
        if cached:
            detail["cached"] = True
        ledger.add("compile_result", detail)
        return result

    def warn_restored() -> None:
        ledger.add("warning", {"message": "candidate altered the theorem "
                               "statement; put the statement back"})

    def draft(step: PlanStep, chain: str,
              length: int) -> tuple[str, int] | None:
        """Ask for ``step`` against the chain's text, compiling nothing.
        Returns the draft and its length when it is strictly shorter than
        ``chain``; otherwise records the step's one ``step_skipped`` and
        returns None."""
        try:
            candidate, restored = refactor_step(chain, step, ledger,
                                                deps_context)
        except (StepFailed, StatementMutation) as exc:
            skipped = {"reason": type(exc).__name__, "message": str(exc)}
        else:
            if restored:
                warn_restored()
            candidate_length = proof_length(candidate)
            if candidate_length < length:
                return candidate, candidate_length
            skipped = {"reason": "candidate not shorter",
                       "candidate_length": candidate_length}
        ledger.add("step_skipped", skipped)
        return None

    def revert(candidate: str, result: CompileResult, proof: str,
               length: int) -> tuple[str, int] | None:
        """``candidate`` with the lines its errors flag put back as
        ``proof`` has them (``_revert_flagged``), and its length, when it
        keeps ``proof``'s statement, is shorter than ``length`` and then
        compiles; records the ``revert`` with the lines put back.
        Otherwise None. Spends no LLM call."""
        reverted = _revert_flagged(candidate, proof, result.diagnostics)
        if reverted is None or not statement_preserved(proof, reverted):
            return None
        reverted_length = proof_length(reverted)
        if reverted_length >= length or not compile_source(reverted)[0].ok:
            return None
        # A put-back line replaces one line, so the line numbers hold.
        ledger.add("revert", {"lines": [
            n for n, (was, now) in enumerate(zip(candidate.split("\n"),
                                                 reverted.split("\n")), 1)
            if was != now]})
        return reverted, reverted_length

    def verify(chain: str, chain_length: int, proof: str,
               length: int) -> tuple[str, int, int] | None:
        """Compile a plan's chain of drafts. While it fails, try its
        ``revert``, then ask the debugger about the failing text, for up
        to ``max_debug_rounds`` rounds that the budget still has; each
        failing reply is tried the same way. The revert runs with the
        budget spent too, since compiles are free. Returns the result, its
        length and its debug rounds when it compiles and is shorter than
        ``proof``; otherwise records the chain's one ``step_skipped`` and
        returns None."""
        candidate, rounds = chain, 0
        try:
            while True:
                result = compile_candidate(candidate)
                if result.ok:
                    break
                reverted = revert(candidate, result, proof, length)
                if reverted is not None:
                    return (*reverted, rounds)
                if (rounds == config.max_debug_rounds
                        or ledger.used >= config.budget):
                    break
                rounds += 1
                candidate, restored = debug(candidate, result, proof, ledger,
                                            rounds)
                ledger.add("debug_round", {"round": rounds})
                if restored:
                    warn_restored()
        except (StepFailed, StatementMutation) as exc:
            skipped = {"reason": type(exc).__name__, "message": str(exc),
                       "debug_rounds": rounds}
        else:
            if not result.ok:
                skipped = {"reason": "no compiling candidate",
                           "debug_rounds": rounds}
            else:
                candidate_length = (proof_length(candidate) if rounds
                                    else chain_length)
                if candidate_length < length:
                    return candidate, candidate_length, rounds
                skipped = {"reason": "candidate not shorter",
                           "candidate_length": candidate_length}
        ledger.add("step_skipped", skipped)
        return None

    initial_length = proof_length(proof)
    current = proof
    current_length = initial_length
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
            left = config.budget - ledger.used
            # With no call left the session ends exhausted, at the target too.
            if left and current_length <= config.target_length:
                # Every adoption is strictly shorter.
                termination = (Termination.TARGET_REACHED
                               if current_length < initial_length
                               else Termination.CONVERGED)
                break
            if left < 2:  # a round needs one plan and one step
                termination = Termination.BUDGET_EXHAUSTED
                break

            spans = segment(current, list(CHUNK_SIZES))
            fresh = list(dict.fromkeys(
                s.text for s in spans if s.text not in retrieved))
            if fresh:
                for text, vector in zip(fresh, embedder.embed(fresh)):
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
            merged = _merge_retrievals(per_span, config.objective.k)
            ledger.add("retrieval", {
                "strategy_ids": [r.strategy_id for r, _ in merged],
            })

            plan_result = plan(current, _strategy_entries(merged, bank),
                               history, ledger, deps_context)
            for warning in plan_result.warnings:
                ledger.add("warning", {"message": warning})
            if not plan_result.steps:
                ledger.add("plan_empty", {})
                termination = Termination.NO_VIABLE_PLAN
                break
            # Each step costs a call: with fewer calls left than steps, ask
            # the best-rated ones, ties in plan order.
            steps = plan_result.steps
            ranked = sorted(range(len(steps)), key=lambda i:
                            REDUCTION_LEVELS.index(steps[i].reduction))
            left = config.budget - ledger.used
            asked, unasked = ranked[:left], sorted(ranked[left:])
            issued = {"steps": [dict(vars(s)) for s in steps]}
            if unasked:
                issued["unasked"] = unasked
            ledger.add("plan_issued", issued)

            # Bottom-up: a draft never renumbers the lines of a step still
            # to run, since a plan's steps are disjoint.
            chain, chain_length = current, current_length
            drafted: list[PlanStep] = []
            exhausted = bool(unasked)  # the budget cut this plan
            for step in sorted((steps[i] for i in asked),
                               key=lambda s: -s.line_start):
                if ledger.used >= config.budget:  # transport retries spent it
                    exhausted = True
                    break
                ledger.add("step_attempted", {"step": dict(vars(step))})
                try:
                    made = draft(step, chain, chain_length)
                except _OutOfBudget:
                    exhausted = True
                    break
                if made is None:
                    continue
                above = step.line_start - 1
                edited_above = (made[0].split("\n", above)[:above]
                                != chain.split("\n", above)[:above])
                chain, chain_length = made
                drafted.append(step)
                if edited_above or chain_length <= config.target_length:
                    break
            # With the budget spent, the drafts so far are still compiled:
            # compiles are free.
            adopted = (verify(chain, chain_length, current, current_length)
                       if drafted else None)
            if adopted is not None:
                current, current_length, rounds = adopted
                history.extend(f"({s.title} @ {s.line_start}-{s.line_end}, "
                               f"Success)" for s in drafted)
                ledger.add("adoption", {
                    "steps": [dict(vars(s)) for s in drafted],
                    "new_length": current_length,
                    "debug_rounds": rounds,
                })
            elif not exhausted:
                history.append(f"(plan of {len(steps)} steps, Failed)")
                ledger.add("plan_failed", {"steps": len(steps)})
    except _OutOfBudget:
        termination = Termination.BUDGET_EXHAUSTED
    except OUTSIDE_FAULTS as exc:
        ledger.add("environment_error", {"type": type(exc).__name__,
                                         "message": str(exc)})
        termination = Termination.ENVIRONMENT_ERROR

    ledger.add("termination", {"reason": termination.value})
    assert current_length <= initial_length
    return SessionResult(
        final_proof=current,
        initial_length=initial_length,
        final_length=current_length,
        calls_used=ledger.used,
        termination=termination,
        trace=ledger.trace,
    )
