"""Agent tests: the statement guard that keeps every candidate proving the
same theorem, and scripted sessions."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooftidy.agent import (
    CHUNK_SIZES,
    AgentConfig,
    PlanStep,
    Termination,
    _validate_steps,
    run_session,
    splice_error_markers,
    statement_preserved,
)
from prooftidy.bank import Bank
from prooftidy.compiler import (
    CompileRequest,
    CompileResult,
    Diagnostic,
    MockCompiler,
    Verdict,
)
from prooftidy.embeddings import MockEmbedder
from prooftidy.errors import (
    MalformedDeclaration,
    PreconditionFailed,
    ProviderContractViolation,
    RetryableProviderError,
    ToolchainMissing,
)
from prooftidy.llm import ScriptedLLM
from prooftidy.retrieval import ObjectiveMode, ObjectiveSpec, StrategyIndex
from prooftidy.tokenizer import proof_length, segment, statement_text

from test_bank import REGISTRY, make_strategy
from test_tokenizer import DELETED_LINE, ONE_WINDOW_PROOF


def test_guard_rejects_rewrite_after_depth0_let():
    original = "theorem t : let x := 1; x + 0 = 1 := by\n  simp"
    candidate = "theorem t : let x := 1; x * 5 = 7 := by\n  simp"
    assert statement_preserved(original, candidate) is False


def test_guard_accepts_unchanged_string_literal_with_bracket():
    s = 'theorem s : "(a" ++ "b" = "(ab" := by\n  rfl'
    assert statement_preserved(s, s) is True


@pytest.mark.parametrize("source, statement", [
    ("theorem t : let x := 1; x + 0 = 1 :=",) * 2,
    ("theorem t : have h : 1 = 1 := rfl; letI y := 2; y = 2 :=",) * 2,
    ('theorem s : "(a" ++ "b" = "(ab" :=',) * 2,
    ("theorem c : '(' ≠ 'a' ∧ '\\'' ≠ '\"' :=",) * 2,
    ("theorem p (h' : a = b) (h'' : b = c) : a = c :=",) * 2,
    ("theorem «weird (name» : True :=",) * 2,
    ("@[simp] lemma l (f : ℕ → ℕ := fun n => n) : f 0 = 0 :=",) * 2,
    ("/-- doc := -/ theorem t /- a /- := -/ b -/ : P -- c := d\n  ∧ Q :=",
     " theorem t  : P \n  ∧ Q :="),
])
def test_statement_text_ends_at_the_statements_assignment(source, statement):
    proof = " by\n  have h : 0 = 0 := rfl -- trailing\n  simp"
    assert statement_text(source + proof) == statement


@pytest.mark.parametrize("original, candidate", [
    ("theorem c : '(' ≠ 'a' := by\n  decide",
     "theorem c : '(' ≠ 'b' := by\n  decide"),
    # A quote char must not open a string that hides a "--" from the guard.
    ('theorem c (h : \'"\' ≠ \'a\') : "a -- b" = "a -- b" := by\n'
     '  have : "x" = "x" := rfl\n  rfl',
     'theorem c (h : \'"\' ≠ \'a\') : "a -- b" = "a" ++ " -- zzz" := by\n'
     '  have : "x" = "x" := rfl\n  rfl'),
])
def test_guard_sees_through_literals(original, candidate):
    assert statement_preserved(original, original) is True
    assert statement_preserved(original, candidate) is False


@pytest.mark.parametrize("source", [
    "def x := 1",
    'theorem t : "never closed := by rfl',
    "theorem t : let x := 1; x = 1",
    "theorem t : P /- never closed := by rfl",
])
def test_statement_text_rejects_unsplittable(source):
    with pytest.raises(MalformedDeclaration):
        statement_text(source)


@pytest.mark.parametrize("candidate, line, marked", [
    # Lean counts lines by "\n" alone: a form feed does not end one.
    ("theorem t : P := by\n  -- see\x0cnote\n  exact bad", 3,
     "theorem t : P := by\n  -- see\x0cnote\n  <error>exact bad</error>"),
    ("theorem t : P := by\r\n  exact bad\r\n  rfl", 2,
     "theorem t : P := by\r\n  <error>exact bad\r</error>\n  rfl"),
], ids=["form_feed", "crlf"])
def test_error_markers_number_lines_as_lean_does(candidate, line, marked):
    diagnostics = [Diagnostic(line, 2, "error", "unknown identifier 'bad'")]
    got = splice_error_markers(candidate, diagnostics)
    assert got == marked
    assert got.replace("<error>", "").replace("</error>", "") == candidate


def test_a_plan_step_beyond_the_last_lean_line_is_dropped():
    # Three lines to Lean; str.splitlines would see a fourth at the \x0c.
    proof = "theorem t : P := by\n  -- see\x0cnote\n  exact bad"
    step = {"line_start": 4, "line_end": 4, "title": "t", "reduction": "low",
            "description": "d"}
    result = _validate_steps([step], proof)
    assert result.steps == []
    assert result.warnings == [
        "step 0: lines 4-4 outside the proof's 3 lines, dropped"]


@pytest.mark.parametrize("line_start", [2.9, 2.0, True, "2", None])
def test_a_plan_step_with_a_non_integer_line_number_is_dropped(line_start):
    # int() would read 2.9 as line 2 and true as line 1, the statement line.
    proof = "theorem t : P := by\n  norm_num\n  rfl"
    step = {"line_start": line_start, "line_end": 3, "title": "t",
            "reduction": "low", "description": "d"}
    result = _validate_steps([step, dict(step, line_start=2)], proof)
    assert [(s.line_start, s.line_end) for s in result.steps] == [(2, 3)]
    assert result.warnings == ["step 0: malformed fields, dropped"]


STEP = {"line_start": 2, "line_end": 3, "title": "t", "reduction": "low",
        "description": "d"}


@pytest.mark.parametrize("payload, kept, warnings", [
    pytest.param({"steps": [STEP]}, [], ["plan payload is not a list"],
                 id="not_a_list"),
    pytest.param(["step", STEP], [(2, 3)], ["step 0: not an object, dropped"],
                 id="entry_not_an_object"),
    pytest.param([dict(STEP, reduction="huge"), STEP], [(2, 3)],
                 ["step 0: unknown reduction 'huge', dropped"],
                 id="unknown_reduction"),
    pytest.param([dict(STEP, line_start=3), STEP], [(3, 3), (2, 3)],
                 ["plan not sorted top-to-bottom; keeping model order"],
                 id="not_sorted"),
])
def test_validate_steps_refusals(payload, kept, warnings):
    proof = "theorem t : P := by\n  norm_num\n  rfl"
    result = _validate_steps(payload, proof)
    assert [(s.line_start, s.line_end) for s in result.steps] == kept
    assert result.warnings == warnings


# --- scripted sessions -------------------------------------------------------

PROOF = ("theorem t : 1 + 1 = 2 := by\n  have h : 2 = 2 := rfl\n"
         "  norm_num\n  simp only []\n  rfl")
FAILING = ("theorem t : 1 + 1 = 2 := by\n  have h : 2 = 2 := rfl\n"
           "  exact bogus")
SHORTER = "theorem t : 1 + 1 = 2 := by\n  norm_num\n  rfl"
# Compiles on the compiler's default toolchain and fails on v4.22.0.
NATIVE_ONLY = "theorem t : 1 + 1 = 2 := by\n  decide"


class CountingEmbedder:
    """A MockEmbedder that records every text it is asked to embed."""

    def __init__(self):
        self.inner = MockEmbedder(dimension=16, seed=3)
        self.dimension = self.inner.dimension
        self.batches: list[list[str]] = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return self.inner.embed(texts)


def _plan(line_start: int, line_end: int) -> str:
    step = {"line_start": line_start, "line_end": line_end, "title": "drop",
            "reduction": "high", "description": "remove redundant lines"}
    return "```json\n" + json.dumps([step]) + "\n```"


def _candidate(proof: str) -> str:
    return "```lean4\n" + proof + "\n```"


# Plan, failed step, replan on the unchanged proof, adoption, empty plan.
SCRIPT = [_plan(2, 5), _candidate(FAILING), {"error": "transport"},
          _plan(2, 4), _candidate(SHORTER), "```json\n[]\n```"]


def _world():
    """A three-strategy bank, its index over a counting embedder, and a
    compiler that passes PROOF and SHORTER, fails FAILING, and passes
    NATIVE_ONLY on every toolchain but v4.22.0."""
    bank = Bank(strategies={s.id: s for s in (
        make_strategy(i, when_to_apply=f"pattern {i}") for i in range(3))},
        registry=REGISTRY)
    embedder = CountingEmbedder()
    index = StrategyIndex.build(bank, embedder)
    embedder.batches.clear()
    ok = CompileResult(Verdict.SUCCESS)
    failure = CompileResult(Verdict.FAILURE, diagnostics=(
        Diagnostic(3, 2, "error", "unknown id"),))
    compiler = MockCompiler(
        by_source={PROOF: ok, SHORTER: ok, FAILING: failure, NATIVE_ONLY: ok},
        by_version={"v4.22.0": {NATIVE_ONLY: failure}},
    )
    return bank, index, compiler, embedder


def _session(objective: ObjectiveSpec = ObjectiveSpec(), budget: int = 30,
             toolchain_version: str | None = None):
    bank, index, compiler, embedder = _world()
    config = AgentConfig(budget=budget, target_length=1, max_debug_rounds=0,
                         objective=objective,
                         toolchain_version=toolchain_version)
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(SCRIPT),
                         compiler)
    return result, embedder


def test_session_embeds_each_distinct_span_once():
    result, embedder = _session()
    assert result.termination == Termination.NO_VIABLE_PLAN
    assert result.final_proof == SHORTER
    assert len(result.trace.of_kind("plan_failed")) == 1
    texts = [t for batch in embedder.batches for t in batch]
    assert len(texts) == len(set(texts))
    # Round two replans on the unchanged proof and embeds nothing.
    assert len(embedder.batches) == 2
    for proof, batch in zip((PROOF, SHORTER), embedder.batches):
        spans = segment(proof, list(CHUNK_SIZES))
        assert batch == list(dict.fromkeys(s.text for s in spans))


def test_an_adoption_re_embeds_only_the_windows_it_touched():
    proof = "\n".join(ONE_WINDOW_PROOF)
    lines = ONE_WINDOW_PROOF[:DELETED_LINE - 1] + ONE_WINDOW_PROOF[DELETED_LINE:]
    shorter = "\n".join(lines)
    bank, index, _, embedder = _world()
    ok = CompileResult(Verdict.SUCCESS)
    compiler = MockCompiler(by_source={proof: ok, shorter: ok})
    script = [_plan(DELETED_LINE, DELETED_LINE), _candidate(shorter),
              "```json\n[]\n```"]
    config = AgentConfig(budget=10, target_length=1, max_debug_rounds=0)
    result = run_session(proof, "", config, bank, index, ScriptedLLM(script),
                         compiler)
    assert result.final_proof == shorter
    first, second = embedder.batches
    assert first == list(dict.fromkeys(
        s.text for s in segment(proof, list(CHUNK_SIZES))))
    # The deleted line's window at each of the sizes 5, 10 and 20, then the
    # whole proof; every other window keeps its text and its retrieval.
    assert CHUNK_SIZES == (5, 10, 20)
    assert second == ["\n".join(lines[start - 1:end]) for start, end in
                      ((21, 22), (11, 22), (11, 36), (1, len(lines)))]


def test_a_step_in_the_trace_is_a_plain_dict_equal_to_asdict():
    result, _ = _session()
    steps = [step for e in result.trace.of_kind("plan_issued")
             for step in e.detail["steps"]]
    steps += [e.detail["step"] for e in result.trace.events
              if e.kind in ("step_attempted", "adoption")]
    assert len(steps) == 5  # two plans of one step, two attempts, an adoption
    for step in steps:
        assert type(step) is dict
        assert list(step.items()) == list(asdict(PlanStep(**step)).items())


def test_session_json_is_byte_identical_across_reruns():
    first, _ = _session()
    second, _ = _session()
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("budget", range(len(SCRIPT) + 1))
def test_session_never_exceeds_budget(budget):
    result, _ = _session(budget=budget)
    assert result.calls_used <= budget
    assert all(e.calls_used <= budget for e in result.trace.events)
    exhausted = result.termination == Termination.BUDGET_EXHAUSTED
    assert exhausted == (budget < len(SCRIPT))


def test_empty_version_filter_warns_once_per_span_every_round():
    objective = ObjectiveSpec(mode=ObjectiveMode.VERSION,
                              target_version="v4.22.0")
    result, _ = _session(objective, toolchain_version="v4.22.0")
    warned = [e.detail["span"] for e in result.trace.of_kind("warning")
              if "version filter" in e.detail["message"]]
    sizes = list(CHUNK_SIZES)
    expected = [[s.line_start, s.line_end]
                for proof in (PROOF, PROOF, SHORTER)
                for s in segment(proof, sizes)]
    # The whole-proof span repeats a window, and still warns.
    assert expected.count([1, 5]) == 4
    assert warned == expected


EMPTY_PLAN = "```json\n[]\n```"
MUTATED = "theorem t : 1 + 1 = 3 := by\n  norm_num\n  rfl"
START = ["session_start", "retrieval", "plan_issued", "step_attempted"]
ADOPTED = START + ["compile_result", "adoption", "termination"]
# One skipped step, then a replan on the unchanged proof that comes back empty.
REPLANNED = ["plan_failed", "retrieval", "plan_empty", "termination"]


@pytest.mark.parametrize(
    "script, config, termination, final, calls, kinds, skipped", [
        pytest.param([], {"target_length": 17}, Termination.CONVERGED,
                     PROOF, 0, ["session_start", "termination"], [],
                     id="converged"),
        pytest.param([_plan(2, 5), _candidate(SHORTER)], {"target_length": 5},
                     Termination.TARGET_REACHED, SHORTER, 2, ADOPTED, [],
                     id="target_reached"),
        pytest.param([_plan(2, 5), _candidate(FAILING), _candidate(SHORTER)],
                     {"target_length": 5, "max_debug_rounds": 1},
                     Termination.TARGET_REACHED, SHORTER, 3,
                     START + ["compile_result", "debug_round"] + ADOPTED[4:],
                     [], id="target_reached_after_debug"),
        pytest.param([EMPTY_PLAN], {}, Termination.NO_VIABLE_PLAN, PROOF, 1,
                     ["session_start", "retrieval", "plan_empty",
                      "termination"], [], id="no_viable_plan"),
        pytest.param([_plan(2, 5), _candidate(SHORTER)], {"budget": 1},
                     Termination.BUDGET_EXHAUSTED, PROOF, 1,
                     START + ["termination"], [], id="budget_exhausted"),
        pytest.param([_plan(2, 5), "no fenced block", EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["step_skipped"] + REPLANNED, ["StepFailed"],
                     id="StepFailed"),
        pytest.param([_plan(2, 5), _candidate(MUTATED), EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["step_skipped"] + REPLANNED,
                     ["StatementMutation"], id="StatementMutation"),
        pytest.param([_plan(2, 5), _candidate(FAILING), EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["compile_result", "step_skipped"] + REPLANNED,
                     ["no compiling candidate"], id="no_compiling_candidate"),
        pytest.param([_plan(2, 5), _candidate(PROOF), EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["compile_result", "step_skipped"] + REPLANNED,
                     ["candidate not shorter"], id="candidate_not_shorter"),
    ])
def test_scripted_session(script, config, termination, final, calls, kinds,
                          skipped):
    bank, index, compiler, _ = _world()
    config = AgentConfig(**{"target_length": 1, "max_debug_rounds": 0,
                            **config})
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         compiler)
    assert result.termination == termination
    assert result.final_proof == final
    assert result.calls_used == calls
    assert [e.kind for e in result.trace.events] == kinds
    assert [e.detail["reason"]
            for e in result.trace.of_kind("step_skipped")] == skipped


def test_checks_run_on_the_objectives_target_version():
    # The objective alone names the target: a candidate that compiles only
    # on the compiler's default toolchain must not be adopted.
    bank, index, compiler, _ = _world()
    objective = ObjectiveSpec(mode=ObjectiveMode.VERSION,
                              target_version="v4.22.0")
    config = AgentConfig(target_length=1, max_debug_rounds=0,
                         objective=objective)
    script = [_plan(2, 5), _candidate(NATIVE_ONLY), EMPTY_PLAN]
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         compiler)
    assert result.final_proof == PROOF
    assert [version for version, _ in compiler.calls] == ["v4.22.0"] * 2


# --- the session's compile memo ----------------------------------------------

@pytest.mark.parametrize("verdict", ["failure", "timeout"])
def test_an_unchanged_debugger_reply_is_not_compiled_again(verdict):
    bank, index, compiler, _ = _world()
    compiler.by_source[FAILING] = CompileResult(Verdict(verdict))
    config = AgentConfig(target_length=1, max_debug_rounds=1)
    script = [_plan(2, 5), _candidate(FAILING), _candidate(FAILING),
              EMPTY_PLAN]
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         compiler)
    assert [source for _, source in compiler.calls] == [PROOF, FAILING]
    assert [e.detail for e in result.trace.of_kind("compile_result")] == [
        {"verdict": verdict}, {"verdict": verdict, "cached": True}]
    assert result.final_proof == PROOF


def test_a_candidate_equal_to_the_input_is_not_compiled_again():
    bank, index, compiler, _ = _world()
    config = AgentConfig(target_length=1, max_debug_rounds=0)
    script = [_plan(2, 5), _candidate(PROOF), EMPTY_PLAN]
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         compiler)
    assert [source for _, source in compiler.calls] == [PROOF]
    assert [e.detail for e in result.trace.of_kind("compile_result")] == [
        {"verdict": "success", "cached": True}]
    assert [e.detail["reason"] for e in result.trace.of_kind("step_skipped")
            ] == ["candidate not shorter"]


# --- faults from outside the process -----------------------------------------

# Not in the compiler's script.
UNCOVERED = "theorem t : 1 + 1 = 2 := by\n  rfl"
# Adopt SHORTER, then replan and try a step that reaches UNCOVERED.
ADOPT_THEN_UNCOVERED = [_plan(2, 5), _candidate(SHORTER), _plan(2, 3),
                        _candidate(UNCOVERED)]
SECOND_ROUND = ["adoption", "retrieval", "plan_issued", "step_attempted"]


def _raise_on(port, attribute: str, exc: Exception, when) -> None:
    """Make ``port.attribute(arg)`` raise ``exc`` whenever ``when(arg)``."""
    method = getattr(port, attribute)

    def faulty(arg):
        if when(arg):
            raise exc
        return method(arg)

    setattr(port, attribute, faulty)


def _check_fails_on(source: str, exc: Exception):
    return lambda compiler, embedder: _raise_on(
        compiler, "check", exc, lambda req: req.source == source)


def _embed_fails_after_one_batch(exc: Exception):
    return lambda compiler, embedder: _raise_on(
        embedder, "embed", exc, lambda texts: bool(embedder.batches))


@pytest.mark.parametrize("fault, raised, kinds", [
    pytest.param(lambda compiler, embedder: None, "ScriptExhausted",
                 SECOND_ROUND, id="candidate_outside_the_script"),
    pytest.param(_check_fails_on(UNCOVERED, ToolchainMissing("no lake")),
                 "ToolchainMissing", SECOND_ROUND, id="ToolchainMissing"),
    pytest.param(_check_fails_on(UNCOVERED, OSError(28, "No space left")),
                 "OSError", SECOND_ROUND, id="OSError"),
    pytest.param(_embed_fails_after_one_batch(
                     ProviderContractViolation("3 vectors for 4 texts")),
                 "ProviderContractViolation", ["adoption"],
                 id="ProviderContractViolation"),
    pytest.param(_embed_fails_after_one_batch(
                     RetryableProviderError("HTTP 503", attempts=3)),
                 "RetryableProviderError", ["adoption"],
                 id="RetryableProviderError"),
])
def test_an_outside_fault_ends_the_session_with_the_adopted_proof(
        fault, raised, kinds):
    bank, index, compiler, embedder = _world()
    fault(compiler, embedder)
    config = AgentConfig(target_length=1, max_debug_rounds=0)
    result = run_session(PROOF, "", config, bank, index,
                         ScriptedLLM(ADOPT_THEN_UNCOVERED), compiler)
    assert result.termination == Termination.ENVIRONMENT_ERROR
    assert result.final_proof == SHORTER
    assert result.final_length == proof_length(SHORTER)
    events = result.trace.events
    assert [e.kind for e in events][-len(kinds) - 2:] == kinds + [
        "environment_error", "termination"]
    assert events[-2].detail["type"] == raised
    assert events[-2].detail["message"]
    assert events[-1].detail == {"reason": "environment_error"}


def test_an_outside_fault_in_the_precheck_ends_the_session():
    bank, index, compiler, embedder = _world()
    _check_fails_on(PROOF, ToolchainMissing("no lake"))(compiler, embedder)
    result = run_session(PROOF, "", AgentConfig(), bank, index,
                         ScriptedLLM([]), compiler)
    assert result.termination == Termination.ENVIRONMENT_ERROR
    assert result.final_proof == PROOF
    assert result.calls_used == 0
    assert [e.kind for e in result.trace.events] == [
        "session_start", "environment_error", "termination"]
    assert result.trace.events[1].detail == {"type": "ToolchainMissing",
                                             "message": "no lake"}


def test_an_input_that_fails_to_compile_is_refused():
    bank, index, compiler, _ = _world()
    with pytest.raises(PreconditionFailed):
        run_session(FAILING, "", AgentConfig(), bank, index, ScriptedLLM([]),
                    compiler)


@pytest.mark.parametrize("field, value", [
    ("budget", -1), ("target_length", 0), ("max_debug_rounds", -1)])
def test_config_rejects_an_out_of_range_setting(field, value):
    with pytest.raises(ValueError, match=field):
        AgentConfig(**{field: value})


def test_a_session_refuses_an_index_without_an_embedder():
    bank, index, compiler, _ = _world()
    bare = StrategyIndex(index._ids, index._matrix)
    with pytest.raises(ValueError, match="StrategyIndex.build"):
        run_session(PROOF, "", AgentConfig(), bank, bare, ScriptedLLM([]),
                    compiler)


@pytest.mark.parametrize("objective", [
    ObjectiveSpec(),
    ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME),
    ObjectiveSpec(mode=ObjectiveMode.VERSION, target_version="v4.22.0"),
], ids=["length", "compile_time", "version"])
def test_a_session_over_an_empty_bank_retrieves_nothing(objective):
    # The empty-bank baseline: the loop runs as scripted on no strategies.
    _, _, compiler, _ = _world()
    bank = Bank(strategies={}, registry=REGISTRY)
    index = StrategyIndex.build(bank, MockEmbedder(dimension=16, seed=3))
    config = AgentConfig(target_length=5, max_debug_rounds=0,
                         objective=objective)
    llm = ScriptedLLM([_plan(2, 5), _candidate(SHORTER)])
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.termination == Termination.TARGET_REACHED
    assert result.final_proof == SHORTER
    assert [e.detail for e in result.trace.of_kind("retrieval")] == [
        {"strategy_ids": []}]
    assert [e.kind for e in result.trace.events
            if e.kind != "warning"] == ADOPTED
    assert "(no strategies retrieved)" in llm.calls[0][0]["content"]


def test_config_rejects_two_target_versions():
    objective = ObjectiveSpec(mode=ObjectiveMode.VERSION,
                              target_version="v4.22.0")
    AgentConfig(objective=objective, toolchain_version="v4.22.0")
    with pytest.raises(ValueError):
        AgentConfig(objective=objective, toolchain_version="v4.16.0")


# --- parallel sessions over one bank and index -------------------------------

def _shared_world_session(bank, index, i: int) -> str:
    """Session ``i`` of 48 over a shared bank and index, with its own
    LLM and compiler: three objectives, four scripts, four budgets."""
    objective = (ObjectiveSpec(),
                 ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME),
                 ObjectiveSpec(mode=ObjectiveMode.VERSION,
                               target_version="v4.22.0"))[i % 3]
    script = (SCRIPT, ADOPT_THEN_UNCOVERED,
              [_plan(2, 5), _candidate(FAILING), _candidate(SHORTER)],
              [_plan(2, 5), _candidate(NATIVE_ONLY), EMPTY_PLAN])[i // 3 % 4]
    config = AgentConfig(budget=(1, 3, 5, 30)[i // 12], target_length=1,
                         max_debug_rounds=1, objective=objective)
    _, _, compiler, _ = _world()
    return run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                       compiler).to_json()


def test_parallel_sessions_over_one_bank_and_index_match_a_sequential_run():
    bank, index, _, _ = _world()
    # The parallel run goes first, so its threads also race on the
    # index's cold per-bank columns; a short switch interval makes them
    # interleave inside each session. The sequential run goes in reverse,
    # so state that one session leaves for the next would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda i: _shared_world_session(bank, index, i), range(48),
                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    sequential = [_shared_world_session(bank, index, i)
                  for i in reversed(range(48))]
    assert parallel == sequential[::-1]


# --- the five promises, as one property ---------------------------------------

PLANS = st.builds(lambda a, n: _plan(a, a + n), st.integers(1, 5),
                  st.integers(0, 2))
CANDIDATES = st.sampled_from([_candidate(p) for p in
                              (SHORTER, NATIVE_ONLY, FAILING, PROOF, MUTATED)])
# Unparseable text, a transport failure, and a candidate outside any fence.
NOISE = st.sampled_from(["no json here", {"error": "transport"}, SHORTER])
STEPS = st.one_of(CANDIDATES, CANDIDATES, NOISE)
# A plan reply then a step reply, each noise one time in three; or a plan,
# a failing candidate and the reply to its first debug round.
EXCHANGES = st.one_of(
    st.tuples(st.one_of(PLANS, PLANS, NOISE), STEPS),
    st.tuples(PLANS, st.just(_candidate(FAILING)), STEPS),
)


@st.composite
def sessions(draw):
    budget = draw(st.integers(0, 8))
    # At least one reply per call the budget allows: the script never runs
    # out, as every exchange holds two or three replies.
    exchanges = draw(st.lists(EXCHANGES, min_size=(budget + 1) // 2,
                              max_size=(budget + 1) // 2 + 2))
    script = [reply for exchange in exchanges for reply in exchange]
    target = draw(st.sampled_from([None, "v4.22.0"]))
    modes = [ObjectiveSpec(), ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME)]
    if target is not None:
        modes.append(ObjectiveSpec(mode=ObjectiveMode.VERSION,
                                   target_version=target))
    config = AgentConfig(budget=budget,
                         target_length=draw(st.sampled_from([2, 5, 17])),
                         max_debug_rounds=draw(st.integers(0, 2)),
                         objective=draw(st.sampled_from(modes)),
                         toolchain_version=target)
    return script, config


def _run(script, config):
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM(script)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    return result, llm, compiler


@given(sessions())
@settings(max_examples=200, deadline=None)
def test_session_keeps_its_five_promises(drawn):
    script, config = drawn
    result, llm, compiler = _run(script, config)
    target = config.toolchain_version or compiler.default_version
    # 1. The final proof compiles on the target; so did every check.
    _, _, replay, _ = _world()
    assert replay.check(CompileRequest(result.final_proof, target)).ok
    assert {version for version, _ in compiler.calls} == {target}
    # 2. The theorem statement is unchanged.
    assert statement_preserved(PROOF, result.final_proof)
    # 3. Length never goes up, and each adoption shortens the proof.
    assert result.initial_length == proof_length(PROOF)
    assert result.final_length == proof_length(result.final_proof)
    lengths = [result.initial_length] + [
        e.detail["new_length"] for e in result.trace.of_kind("adoption")]
    assert all(a > b for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] == result.final_length
    # 4. LLM calls, transport failures included, never pass the budget.
    assert result.calls_used == len(llm.calls) <= config.budget
    assert all(e.calls_used <= config.budget for e in result.trace.events)
    # 5. A re-run is byte-identical.
    assert _run(script, config)[0].to_json() == result.to_json()
