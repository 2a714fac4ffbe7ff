"""Compiler-in-the-loop refactoring session over a frozen LLM.

One session drives a single theorem: segment the current proof, retrieve
strategies per segment under the user's objective, ask the planner for a
step sequence, execute steps with the refactorer, debug failed candidates a
bounded number of rounds, and adopt a candidate only when it compiles and
is strictly shorter. Adoption triggers replanning; the loop stops on budget
exhaustion, on reaching the target length, or when the planner has nothing
left to propose. A fault outside the process (a missing toolchain, an
exhausted script, an unreachable provider) ends the session with the best
proof so far.

The budget unit is one LLM call — planner, refactorer, debugger, and
corrective reparses all count; compiles are free. With scripted LLM and
compiler mocks a session is byte-deterministic.

Where each rule lives: retrieval rules in ``retrieval.retrieve``; the
budget, the transport retry and the trace in ``_Ledger``; one step's
refactor, compile and debug rounds, its acceptance and its one
``step_skipped`` in ``run_session``'s ``attempt``; the target toolchain,
the one every check compiles under, at the top of ``run_session``; the
session's compile memo, one check per distinct source, in its
``compile_source``; which faults end a session, in ``OUTSIDE_FAULTS``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum

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
    render,
)
from .retrieval import ObjectiveMode, ObjectiveSpec, RankedStrategy, StrategyIndex, retrieve
from .tokenizer import line_count, proof_length, segment, statement_text


class Termination(str, Enum):
    BUDGET_EXHAUSTED = "budget_exhausted"
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
    budget: int = 30                 # LLM calls
    target_length: int = 5           # stop once the proof is this short
    max_debug_rounds: int = 3        # repair attempts per failed step
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
        steps.append(step)
    starts = [s.line_start for s in steps]
    if starts != sorted(starts):
        warnings.append("plan not sorted top-to-bottom; keeping model order")
    return PlanResult(steps, warnings)


def plan(proof: str, retrieved: list[dict], history: list[str], llm,
         deps_context: str = "") -> PlanResult:
    """Ask the planner for refactoring steps and validate the reply.

    An unparseable reply gets one corrective reparse (a fresh LLM call); a
    second failure yields the empty plan.
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
    payload = extract_json_payload(raw)
    if payload is None:
        retry = messages + [
            {"role": "assistant", "content": raw},
            {"role": "user", "content": CORRECTIVE_SUFFIX},
        ]
        raw = llm.complete(retry)
        payload = extract_json_payload(raw)
        if payload is None:
            return PlanResult([], ["plan unparseable after corrective retry"])
    return _validate_steps(payload, proof)


def _normalized_statement(text: str) -> str | None:
    try:
        return " ".join(statement_text(text).split())
    except MalformedDeclaration:
        return None


def statement_preserved(original: str, candidate: str) -> bool:
    """Exact statement match modulo comments and whitespace runs."""
    a = _normalized_statement(original)
    b = _normalized_statement(candidate)
    return a is not None and a == b


def _extract_candidate(raw: str, original: str) -> str:
    candidate = extract_fenced_block(raw, "lean4")
    if candidate is None:
        candidate = extract_fenced_block(raw, "lean")
    if candidate is None:
        raise StepFailed("reply contains no fenced lean4 block")
    if not statement_preserved(original, candidate):
        raise StatementMutation("candidate altered the theorem statement")
    return candidate


def refactor_step(proof: str, step: PlanStep, llm,
                  deps_context: str = "") -> str:
    """Execute one planned step; returns the candidate proof text."""
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


def debug(candidate: str, compile_result: CompileResult, original: str,
          llm, prev_round_num: int = 1) -> str:
    """One localized repair round from compiler feedback; the repaired
    candidate must keep ``original``'s statement."""
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
    per_span: list[tuple[RankedStrategy, "object"]], k: int
) -> list[tuple[RankedStrategy, object]]:
    """Deduplicate by strategy id (keeping the best-scoring hit), sort by
    similarity, truncate to k."""
    best: dict[str, tuple[RankedStrategy, object]] = {}
    for ranked, span in per_span:
        held = best.get(ranked.strategy_id)
        if held is None or ranked.similarity > held[0].similarity:
            best[ranked.strategy_id] = (ranked, span)
    merged = sorted(best.values(),
                    key=lambda t: (-t[0].similarity, t[0].strategy_id))
    return merged[:k]


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

    def attempt(step: PlanStep, proof: str,
                length: int) -> tuple[str, int, int] | None:
        """Refactor, compile and debug one step. Returns the candidate,
        its length and its debug rounds when it compiles and is shorter
        than ``proof``; otherwise records the step's one ``step_skipped``
        and returns None."""
        rounds = 0
        try:
            candidate = refactor_step(proof, step, ledger, deps_context)
            result = compile_candidate(candidate)
            while not result.ok and rounds < config.max_debug_rounds:
                rounds += 1
                candidate = debug(candidate, result, proof, ledger, rounds)
                ledger.add("debug_round", {"round": rounds})
                result = compile_candidate(candidate)
        except (StepFailed, StatementMutation) as exc:
            skipped = {"reason": type(exc).__name__, "message": str(exc)}
            if rounds:
                skipped["debug_rounds"] = rounds
        else:
            if not result.ok:
                skipped = {"reason": "no compiling candidate",
                           "debug_rounds": rounds}
            else:
                candidate_length = proof_length(candidate)
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
    adopted_any = False
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
            if ledger.used >= config.budget:
                termination = Termination.BUDGET_EXHAUSTED
                break
            if current_length <= config.target_length:
                termination = (Termination.TARGET_REACHED if adopted_any
                               else Termination.CONVERGED)
                break

            spans = segment(current, list(CHUNK_SIZES))
            fresh = list(dict.fromkeys(
                s.text for s in spans if s.text not in retrieved))
            if fresh:
                for text, vector in zip(fresh, embedder.embed(fresh)):
                    retrieved[text] = retrieve(index, bank, vector,
                                               config.objective)
            hits: list[tuple[RankedStrategy, object]] = []
            for span in spans:
                results = retrieved[span.text]
                if not results and config.objective.mode == ObjectiveMode.VERSION:
                    ledger.add("warning", {
                        "message": "version filter left no strategies for a "
                                   "segment; proceeding without retrieval",
                        "span": [span.line_start, span.line_end],
                    })
                hits.extend((r, span) for r in results)
            merged = _merge_retrievals(hits, config.objective.k)
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
            ledger.add("plan_issued", {
                "steps": [dict(vars(s)) for s in plan_result.steps],
            })

            for step in plan_result.steps:
                ledger.add("step_attempted", {"step": dict(vars(step))})
                adopted = attempt(step, current, current_length)
                if adopted is None:
                    continue
                current, current_length, rounds = adopted
                adopted_any = True
                history.append(
                    f"({step.title} @ {step.line_start}-{step.line_end}, "
                    f"Success)"
                )
                ledger.add("adoption", {
                    "step": dict(vars(step)),
                    "new_length": current_length,
                    "debug_rounds": rounds,
                })
                break  # replan on the updated proof
            else:
                history.append(
                    f"(plan of {len(plan_result.steps)} steps, Failed)"
                )
                ledger.add("plan_failed", {"steps": len(plan_result.steps)})
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
