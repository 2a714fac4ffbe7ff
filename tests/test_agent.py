"""Agent tests: the statement guard that keeps every candidate proving the
same theorem, and scripted sessions."""

from __future__ import annotations

import json
import sys
import types
from dataclasses import asdict
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooftidy import agent
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
from prooftidy.bank import REDUCTION_LEVELS, Bank
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
from prooftidy.retrieval import (
    ObjectiveMode,
    ObjectiveSpec,
    RankedStrategy,
    StrategyIndex,
)
from prooftidy.tokenizer import proof_length, segment, statement_of

from test_bank import REGISTRY, make_strategy
from test_compiler import FakeLake
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
def test_statement_of_ends_at_the_statements_assignment(source, statement):
    proof = " by\n  have h : 0 = 0 := rfl -- trailing\n  simp"
    assert statement_of(source + proof) == (source,
                                             " ".join(statement.split()))


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
def test_statement_of_rejects_unsplittable(source):
    with pytest.raises(MalformedDeclaration):
        statement_of(source)


def two_scan_statement_preserved(original: str, candidate: str) -> bool:
    """The guard's rule with both texts scanned: the normalised statements
    are equal, and the original's is well formed."""
    def normalized(text):
        try:
            return statement_of(text)[1]
        except MalformedDeclaration:
            return None
    expected = normalized(original)
    return expected is not None and expected == normalized(candidate)


HEADERS = ["theorem t", "lemma l", "example", "@[simp] theorem t",
           "/-- doc := -/ theorem t", "private theorem t"]
# Statement pieces: binders and brackets, comments, string and char
# literals and «» names (several hiding a ":="), depth-0 binders, and lone
# openers that leave a comment, literal or name unclosed.
STATEMENT_PIECES = [
    " ", "\n", "(a b : ℕ)", "[inst : Ring R]", "{x : α}", "⟨a, b⟩",
    "(h : a := b)", "(f : ℕ → ℕ := fun n => n)", "-- note := x\n",
    "/- a /- := -/ b -/", "/-- doc -/", '"s := (\\" x"', '"--"', "'('",
    "'\\''", "'\"'", "'\\x41'", "«weird := (name»", "let x := 1;",
    "have h : 1 = 1 := rfl;", "letI y := 2;", "h'", "x = y", ":", "∧",
    "a.b", "_", "1", "'", '"', "«", "/-", "--", ")", "(",
]
BODY_PIECES = [" by", "\n  simp", "\n  have h : 0 = 0 := rfl", " -- c := d",
               "\n  exact ⟨_, rfl⟩", " rfl", '"x"', "'y'", "/- -/", ":="]
CHARS = " \n:=()⟨⟩\"'-/«»\\lethavx"

declarations = st.builds(
    lambda header, statement, body: header + "".join(statement) + " :="
    + "".join(body),
    st.sampled_from(HEADERS),
    st.lists(st.sampled_from(STATEMENT_PIECES), max_size=8),
    st.lists(st.sampled_from(BODY_PIECES), max_size=5),
) | st.text(alphabet=CHARS + "orm", max_size=40).map(lambda t: "theorem" + t)
snippets = st.sampled_from(STATEMENT_PIECES + BODY_PIECES) | st.text(
    alphabet=CHARS, max_size=4)


def statement_end(source: str) -> int | None:
    try:
        return len(statement_of(source)[0])
    except MalformedDeclaration:
        return None


@settings(max_examples=400, deadline=None)
@given(source=declarations, suffix=snippets)
def test_text_that_repeats_the_statement_bytes_has_that_statement(source,
                                                                  suffix):
    end = statement_end(source)
    if end is None:
        return
    assert source[:end].endswith(":=")
    assert statement_of(source[:end] + suffix) == statement_of(source)


@settings(max_examples=400, deadline=None)
@given(original=declarations, data=st.data())
def test_guard_equals_the_two_scan_rule(original, data):
    end = statement_end(original)
    candidates = [original]
    if end is not None:
        candidates.append(original[:end] + data.draw(snippets))
        candidates.append(original[:end])
    for _ in range(4):  # an insertion, a deletion or a replacement
        at = data.draw(st.integers(0, len(original)))
        cut = data.draw(st.integers(0, 3))
        insert = data.draw(st.just("") | snippets)
        candidates.append(original[:at] + insert + original[at + cut:])
    candidates.append(data.draw(declarations))
    agent._statement_of.cache_clear()
    for candidate in candidates:
        assert statement_preserved(original, candidate) == \
            two_scan_statement_preserved(original, candidate)


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


def _errors(*lines: int, severity: str = "error") -> list[Diagnostic]:
    return [Diagnostic(line, 2, severity, "unknown identifier")
            for line in lines]


# Lean numbers lines by "\n" alone; the carriage return, the form feed and
# the trailing tab are bytes a put-back must keep.
REVERT_PROOF = ("theorem t : P := by\r\n  have h : a := by\x0c simp\n"
                "  exact Nat.pos_of_ne_zero h\n  rfl\t")
# Deletes line 2 and renames the name on line 3, now line 2.
REVERT_DRAFT = "theorem t : P := by\r\n  exact Nat.pos_iff_ne_zero h\n  rfl\t"
# Its lines 2-4 are one hunk, drafted as two lines that both break.
TWO_BROKEN_PROOF = ("theorem t : P := by\n  simp at h\n  clear x\n"
                    "  exact foo_bar h\n  rfl")
TWO_BROKEN_DRAFT = ("theorem t : P := by\n  simp at h'\n  exact foo_baz h\n"
                    "  rfl")


@pytest.mark.parametrize("proof, candidate, diagnostics, reverted", [
    pytest.param(REVERT_PROOF, REVERT_DRAFT, _errors(2),
                 "theorem t : P := by\r\n  exact Nat.pos_of_ne_zero h\n"
                 "  rfl\t", id="changed_line_put_back"),
    pytest.param(TWO_BROKEN_PROOF, TWO_BROKEN_DRAFT, _errors(2, 3),
                 "theorem t : P := by\n  simp at h\n  exact foo_bar h\n  rfl",
                 id="two_lines_in_one_hunk"),
    # "  xa" and "  ya" are equally alike to "  xy": the first one wins.
    pytest.param("t\n  xa\n  ya\n  rfl", "t\n  xy\n  rfl", _errors(2),
                 "t\n  xa\n  rfl", id="first_of_equally_alike"),
    pytest.param("t\n  ya\n  xa\n  rfl", "t\n  xy\n  rfl", _errors(2),
                 "t\n  ya\n  rfl", id="first_of_equally_alike_swapped"),
    pytest.param(REVERT_PROOF, REVERT_DRAFT, _errors(1, 3, 4), None,
                 id="unchanged_lines_and_none_past_the_end"),
    pytest.param(REVERT_PROOF,
                 REVERT_PROOF.replace("  rfl", "  skip\n  rfl"), _errors(4),
                 None, id="inserted_line"),
    pytest.param(REVERT_PROOF, REVERT_DRAFT, _errors(2, severity="warning"),
                 None, id="warning_only"),
    pytest.param(REVERT_PROOF, REVERT_DRAFT, [], None, id="no_diagnostics"),
])
def test_revert_flagged_puts_back_only_broken_changed_lines(
        proof, candidate, diagnostics, reverted):
    assert agent._revert_flagged(candidate, proof, diagnostics) == reverted


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
    pytest.param([STEP, dict(STEP, line_start=3, line_end=5),
                  dict(STEP, line_start=4, line_end=5)], [(2, 3), (4, 5)],
                 ["step 1: lines 3-5 overlap a kept step, dropped"],
                 id="step_overlapping_a_kept_step"),
])
def test_validate_steps_refusals(payload, kept, warnings):
    proof = "theorem t : P := by\n  norm_num\n  rfl\n  rfl\n  rfl"
    result = _validate_steps(payload, proof)
    assert [(s.line_start, s.line_end) for s in result.steps] == kept
    assert result.warnings == warnings


# --- scripted sessions -------------------------------------------------------

def _refactor_targets(llm) -> list[str]:
    """The ``Target lines`` of each refactor prompt, in call order."""
    return [line.removeprefix("Target lines: ") for messages in llm.calls
            for line in messages[0]["content"].split("\n")
            if line.startswith("Target lines: ")]


def _assert_each_attempted_step_is_asked(result, llm) -> None:
    """The call after each ``step_attempted`` event is a refactor call."""
    asked = {i for i, messages in enumerate(llm.calls)
             if "\nTarget lines: " in messages[0]["content"]}
    assert {e.calls_used for e in result.trace.of_kind("step_attempted")} \
        <= asked


PROOF = ("theorem t : 1 + 1 = 2 := by\n  have h : 2 = 2 := rfl\n"
         "  norm_num\n  simp only []\n  rfl")
FAILING = ("theorem t : 1 + 1 = 2 := by\n  have h : 2 = 2 := rfl\n"
           "  exact bogus")
SHORTER = "theorem t : 1 + 1 = 2 := by\n  norm_num\n  rfl"
# PROOF without its line 4, and SHORTER's lines with line 2 back.
MIDDLE = ("theorem t : 1 + 1 = 2 := by\n  have h : 2 = 2 := rfl\n"
          "  norm_num\n  rfl")
# Compiles on the compiler's default toolchain and fails on v4.22.0.
NATIVE_ONLY = "theorem t : 1 + 1 = 2 := by\n  decide"
# PROOF without its line 4, and with line 3 naming hx, which the compiler
# flags; line 3 put back as PROOF has it gives MIDDLE, two tokens shorter.
RENAMED = ("theorem t : 1 + 1 = 2 := by\n  have h : 2 = 2 := rfl\n"
           "  norm_num at hx\n  rfl")
# PROOF with its line 4 cut short, which the compiler flags; line 4 put
# back gives PROOF, which is not shorter.
SIMP_CUT = PROOF.replace("simp only []", "simp")


class CountingEmbedder:
    """A MockEmbedder that records every text it is asked to embed."""

    def __init__(self):
        self.inner = MockEmbedder(dimension=16, seed=3)
        self.dimension = self.inner.dimension
        self.batches: list[list[str]] = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return self.inner.embed(texts)


def _steps(*spans: tuple) -> str:
    """A plan's JSON array, one step per (line_start, line_end), rated
    high, or per (line_start, line_end, reduction)."""
    return json.dumps([{"line_start": a, "line_end": b, "title": "drop",
                        "reduction": rated[0] if rated else "high",
                        "description": "remove redundant lines"}
                       for a, b, *rated in spans])


def _plan(line_start: int, line_end: int) -> str:
    return "```json\n" + _steps((line_start, line_end)) + "\n```"


def _cut_plan(payload: str, cut: int, closed: bool) -> str:
    """A plan reply whose array stops after ``cut`` characters, as a reply
    cut off by its token limit does, with or without the closing fence."""
    return "```json\n" + payload[:cut] + ("\n```" if closed else "")


def _candidate(proof: str) -> str:
    return "```lean4\n" + proof + "\n```"


# Plan, failed step, replan on the unchanged proof, adoption, empty plan.
SCRIPT = [_plan(2, 5), _candidate(FAILING), {"error": "transport"},
          _plan(2, 4), _candidate(SHORTER), "```json\n[]\n```"]


def _flagged(line: int) -> CompileResult:
    return CompileResult(Verdict.FAILURE, diagnostics=tuple(_errors(line)))


def _world():
    """A three-strategy bank, its index over a counting embedder, and a
    compiler that passes PROOF, MIDDLE and SHORTER, fails FAILING, RENAMED
    and SIMP_CUT, and passes NATIVE_ONLY on every toolchain but v4.22.0.

    FAILING and NATIVE_ONLY fail on line 1, which no draft changes, so no
    line of theirs is put back and the debugger is asked."""
    bank = Bank(strategies={s.id: s for s in (
        make_strategy(i, when_to_apply=f"pattern {i}") for i in range(3))},
        registry=REGISTRY)
    embedder = CountingEmbedder()
    index = StrategyIndex.build(bank, embedder)
    embedder.batches.clear()
    ok = CompileResult(Verdict.SUCCESS)
    failure = CompileResult(Verdict.FAILURE, diagnostics=(
        Diagnostic(1, 25, "error", "unsolved goals"),))
    compiler = MockCompiler(
        by_source={PROOF: ok, MIDDLE: ok, SHORTER: ok, FAILING: failure,
                   NATIVE_ONLY: ok, RENAMED: _flagged(3),
                   SIMP_CUT: _flagged(4)},
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
    steps += [e.detail["step"] for e in result.trace.of_kind("step_attempted")]
    steps += [step for e in result.trace.of_kind("adoption")
              for step in e.detail["steps"]]
    assert len(steps) == 5  # two plans of one step, two attempts, an adoption
    for step in steps:
        assert type(step) is dict
        assert list(step.items()) == list(asdict(PlanStep(**step)).items())


def test_session_json_is_byte_identical_across_reruns():
    first, _ = _session()
    second, _ = _session()
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("budget", range(len(SCRIPT) + 2))
def test_session_never_exceeds_budget(budget):
    result, _ = _session(budget=budget)
    assert result.calls_used <= budget
    assert all(e.calls_used <= budget for e in result.trace.events)
    exhausted = result.termination == Termination.BUDGET_EXHAUSTED
    # The script's last reply, the empty plan, is asked only with two calls
    # left: one for the plan and one for a step.
    assert exhausted == (budget < len(SCRIPT) + 1)


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


def test_the_version_filter_warns_under_the_compile_time_objective_too():
    # retrieve filters by the target version under both pooled objectives.
    warned = {}
    for mode in (ObjectiveMode.VERSION, ObjectiveMode.COMPILE_TIME):
        objective = ObjectiveSpec(mode=mode, target_version="v4.22.0")
        result, _ = _session(objective, toolchain_version="v4.22.0")
        warned[mode] = [e.detail["span"] for e in result.trace.of_kind("warning")
                        if "version filter" in e.detail["message"]]
    assert warned[ObjectiveMode.VERSION] != []
    assert warned[ObjectiveMode.COMPILE_TIME] == warned[ObjectiveMode.VERSION]


class EchoEmbedder:
    """Embeds each text as itself, so a stand-in ``retrieve`` can answer
    by span text."""

    def embed(self, texts):
        return list(texts)


def _hits(*pairs) -> list[RankedStrategy]:
    return [RankedStrategy(f"s{i:04d}", sim, rank)
            for rank, (i, sim) in enumerate(pairs, 1)]


def test_the_merge_keeps_each_strategys_best_span_and_the_top_k(monkeypatch):
    proof = "\n".join(ONE_WINDOW_PROOF)
    spans = segment(proof, list(CHUNK_SIZES))
    first, second, third = list(dict.fromkeys(s.text for s in spans))[:3]
    results = {
        # s0003 ties s0002 below, and loses on its id.
        first: _hits((0, 0.2), (1, 0.4), (3, 0.3)),
        second: [],
        # s0000 scores higher here; s0001 ties its first span's score.
        third: _hits((0, 0.5), (1, 0.4), (2, 0.3), (4, 0.1)),
    }
    monkeypatch.setattr(agent, "retrieve",
                        lambda index, bank, text, objective:
                        results.get(text, []))
    bank = Bank(strategies={s.id: s for s in (
        make_strategy(i) for i in range(5))}, registry=REGISTRY)
    objective = ObjectiveSpec(mode=ObjectiveMode.VERSION,
                              target_version="v4.22.0", k=3)
    compiler = MockCompiler(by_source={proof: CompileResult(Verdict.SUCCESS)})
    llm = ScriptedLLM([EMPTY_PLAN])
    result = run_session(proof, "", AgentConfig(objective=objective), bank,
                         types.SimpleNamespace(embedder=EchoEmbedder()), llm,
                         compiler)

    def lines(text):
        span = next(s for s in spans if s.text == text)
        return f"{span.line_start}-{span.line_end}"

    prompt = llm.calls[0][0]["content"]
    for i, text, similarity in ((0, third, "0.500"), (1, first, "0.400"),
                                (2, third, "0.300")):
        assert (f"### Collapse case split {i}  [matched lines {lines(text)}, "
                f"similarity {similarity}]") in prompt
    assert "Collapse case split 3" not in prompt
    kinds = [e.kind for e in result.trace.events]
    retrieval = kinds.index("retrieval")
    assert result.trace.events[retrieval].detail == {
        "strategy_ids": ["s0000", "s0001", "s0002"]}
    # One warning per span left empty, in span order, before the retrieval.
    warned = [e.detail["span"] for e in result.trace.events[:retrieval]
              if e.kind == "warning"]
    assert warned == [[s.line_start, s.line_end] for s in spans
                      if not results.get(s.text)]
    assert kinds[:retrieval] == ["session_start"] + ["warning"] * len(warned)


EMPTY_PLAN = "```json\n[]\n```"
# SHORTER and FAILING with another statement: put back, they are those two.
MUTATED = "theorem t : 1 + 1 = 3 := by\n  norm_num\n  rfl"
MUTATED_FAILING = FAILING.replace("1 + 1 = 2", "1 + 1 = 3")
# No top-level := ends its statement, so it cannot be put back.
UNSPLITTABLE = "theorem t : 1 + 1 = 2 by\n  norm_num\n  rfl"
TWO_STEPS = _steps((2, 3), (4, 5))
# Cut inside the second step, and inside the first.
CUT_PLAN = _cut_plan(TWO_STEPS, TWO_STEPS.index("line_end", 60), closed=True)
CUT_BEFORE_ANY_STEP = _cut_plan(TWO_STEPS, 20, closed=False)
UNCLOSED_PLAN = _cut_plan(_steps((2, 3)), None, closed=False)
START = ["session_start", "retrieval", "plan_issued", "step_attempted"]
ADOPTED = START + ["compile_result", "adoption", "termination"]
SALVAGED = ["session_start", "retrieval", "warning"] + ADOPTED[2:]
# One skipped step, then a replan on the unchanged proof that comes back empty.
REPLANNED = ["plan_failed", "retrieval", "plan_empty", "termination"]
# Run bottom-up, its steps ask for lines 4-5 of PROOF, giving MIDDLE, then
# for lines 2-3 of MIDDLE, giving SHORTER.
CHAIN_PLAN = "```json\n" + _steps((2, 3), (4, 5)) + "\n```"
CHAINED = START + ["step_attempted"] + ADOPTED[4:]
# Run bottom-up, its steps ask for lines 3-5, then for line 2.
SPLIT_PLAN = "```json\n" + _steps((3, 5), (2, 2)) + "\n```"
# Three steps, of which a budget of three asks two: by rating, 4-5 and 2-2.
RATED_PLAN = "```json\n" + _steps((2, 2, "high"), (3, 3, "low"),
                                  (4, 5, "medium")) + "\n```"
# Equal ratings keep the plan's order: 4-5 and 2-2 again.
EVEN_PLAN = "```json\n" + _steps((4, 5), (2, 2), (3, 3)) + "\n```"


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
                     Termination.BUDGET_EXHAUSTED, PROOF, 0,
                     ["session_start", "termination"], [],
                     id="budget_exhausted"),
        pytest.param([_plan(2, 5), _candidate(SHORTER), EMPTY_PLAN],
                     {"budget": 3}, Termination.BUDGET_EXHAUSTED, SHORTER, 2,
                     ADOPTED[:-1] + ["termination"], [],
                     id="one_call_left_asks_no_plan"),
        pytest.param([RATED_PLAN, _candidate(MIDDLE), _candidate(SHORTER)],
                     {"budget": 3}, Termination.BUDGET_EXHAUSTED, SHORTER, 3,
                     CHAINED, [], id="plan_over_budget_asks_its_best_rated"),
        pytest.param([EVEN_PLAN, _candidate(MIDDLE), _candidate(SHORTER)],
                     {"budget": 3}, Termination.BUDGET_EXHAUSTED, SHORTER, 3,
                     CHAINED, [], id="equal_ratings_over_budget"),
        pytest.param([_plan(2, 5), "no fenced block", EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["step_skipped"] + REPLANNED, ["StepFailed"],
                     id="StepFailed"),
        pytest.param([_plan(2, 5), _candidate(UNSPLITTABLE), EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["step_skipped"] + REPLANNED,
                     ["StatementMutation"], id="StatementMutation"),
        pytest.param([_plan(2, 5), _candidate(MUTATED), EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, SHORTER, 3,
                     START + ["warning", "compile_result", "adoption",
                              "retrieval", "plan_empty", "termination"],
                     [], id="statement_restored"),
        pytest.param([_plan(2, 5), _candidate(FAILING), _candidate(MUTATED)],
                     {"target_length": 5, "max_debug_rounds": 1},
                     Termination.TARGET_REACHED, SHORTER, 3,
                     START + ["compile_result", "debug_round", "warning"]
                     + ADOPTED[4:], [], id="statement_restored_in_debug"),
        pytest.param([_plan(2, 5), _candidate(MUTATED_FAILING), EMPTY_PLAN],
                     {}, Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["warning", "compile_result", "step_skipped"]
                     + REPLANNED, ["no compiling candidate"],
                     id="restored_statement_fails_to_compile"),
        pytest.param([CUT_PLAN, _candidate(SHORTER)], {"target_length": 5},
                     Termination.TARGET_REACHED, SHORTER, 2, SALVAGED, [],
                     id="plan_cut_off"),
        pytest.param([UNCLOSED_PLAN, _candidate(SHORTER)],
                     {"target_length": 5}, Termination.TARGET_REACHED,
                     SHORTER, 2, SALVAGED, [], id="plan_fence_unclosed"),
        pytest.param([CUT_BEFORE_ANY_STEP, _plan(2, 5), _candidate(SHORTER)],
                     {"target_length": 5}, Termination.TARGET_REACHED,
                     SHORTER, 3, ADOPTED, [], id="plan_cut_before_any_step"),
        pytest.param(["```json\n" + "[" * 100_000 + "\n```", EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 2,
                     ["session_start", "retrieval", "plan_empty",
                      "termination"], [], id="plan_nested_too_deep"),
        pytest.param([_plan(2, 5), _candidate(FAILING), EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["compile_result", "step_skipped"] + REPLANNED,
                     ["no compiling candidate"], id="no_compiling_candidate"),
        pytest.param([_plan(2, 5), _candidate(PROOF), EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["step_skipped"] + REPLANNED,
                     ["candidate not shorter"], id="candidate_not_shorter"),
        pytest.param([CHAIN_PLAN, _candidate(MIDDLE), _candidate(SHORTER)],
                     {"target_length": 5}, Termination.TARGET_REACHED,
                     SHORTER, 3, CHAINED, [], id="chain_of_two_drafts"),
        pytest.param([CHAIN_PLAN, {"error": "transport"}, _candidate(MIDDLE)],
                     {"budget": 3}, Termination.BUDGET_EXHAUSTED, MIDDLE, 3,
                     START + ["warning"] + ADOPTED[4:], [],
                     id="budget_spent_after_the_first_draft"),
        pytest.param([SPLIT_PLAN, _candidate(FAILING)],
                     {"budget": 2, "max_debug_rounds": 1},
                     Termination.BUDGET_EXHAUSTED, PROOF, 2,
                     START + ["compile_result", "step_skipped", "termination"],
                     ["no compiling candidate"],
                     id="budget_spent_after_a_failing_draft"),
        pytest.param([_plan(2, 5), _candidate(RENAMED), EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, MIDDLE, 3,
                     START + ["compile_result", "revert", "adoption",
                              "retrieval", "plan_empty", "termination"], [],
                     id="revert_with_no_debug_rounds"),
        pytest.param([_plan(2, 5), _candidate(RENAMED)],
                     {"budget": 2, "max_debug_rounds": 1},
                     Termination.BUDGET_EXHAUSTED, MIDDLE, 2,
                     START + ["compile_result", "revert", "adoption",
                              "termination"], [],
                     id="revert_with_the_budget_spent"),
        pytest.param([CUT_BEFORE_ANY_STEP, CHAIN_PLAN], {"budget": 2},
                     Termination.BUDGET_EXHAUSTED, PROOF, 2,
                     ["session_start", "retrieval", "plan_issued",
                      "termination"], [],
                     id="budget_spent_before_the_first_draft"),
    ])
def test_scripted_session(script, config, termination, final, calls, kinds,
                          skipped):
    bank, index, compiler, _ = _world()
    config = AgentConfig(**{"target_length": 1, "max_debug_rounds": 0,
                            **config})
    llm = ScriptedLLM(script)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    _assert_each_attempted_step_is_asked(result, llm)
    assert result.termination == termination
    assert result.final_proof == final
    assert result.calls_used == calls
    assert [e.kind for e in result.trace.events] == kinds
    assert [e.detail["reason"]
            for e in result.trace.of_kind("step_skipped")] == skipped


@pytest.mark.parametrize("reply, kept, corrective", [
    pytest.param(CUT_PLAN, 1, 0, id="cut_in_second_step"),
    pytest.param(UNCLOSED_PLAN, 1, 0, id="one_step_unclosed"),
    pytest.param(_cut_plan(TWO_STEPS, None, closed=False), 2, 0,
                 id="two_steps_unclosed"),
    pytest.param(CUT_BEFORE_ANY_STEP, 0, 1, id="cut_in_first_step"),
])
def test_a_cut_off_plan_keeps_its_complete_steps(reply, kept, corrective):
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([reply, EMPTY_PLAN])
    result = run_session(PROOF, "", AgentConfig(target_length=1), bank,
                         index, llm, compiler)
    asked_again = [m for m in llm.calls
                   if m[-1]["content"] == agent.CORRECTIVE_SUFFIX]
    assert len(asked_again) == corrective
    warnings = [e.detail["message"]
                for e in result.trace.of_kind("warning")]
    if kept:
        issued = result.trace.of_kind("plan_issued")[0].detail["steps"]
        assert issued == json.loads(TWO_STEPS)[:kept]
        assert warnings == [f"plan reply incomplete: kept {kept} complete "
                            "steps"]
    else:
        assert result.trace.of_kind("plan_empty") and not warnings


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


@pytest.mark.parametrize("draft", [PROOF, PROOF + "\n  rfl"],
                         ids=["equal", "longer"])
def test_a_draft_that_is_not_shorter_is_not_compiled(draft):
    bank, index, compiler, _ = _world()
    config = AgentConfig(target_length=1, max_debug_rounds=0)
    script = [_plan(2, 5), _candidate(draft), EMPTY_PLAN]
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         compiler)
    assert [source for _, source in compiler.calls] == [PROOF]
    assert result.trace.of_kind("compile_result") == []
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "candidate not shorter",
         "candidate_length": proof_length(draft)}]


# --- a plan runs as one chain of drafts ---------------------------------------

def test_a_two_step_plan_is_adopted_with_one_plan_and_one_compile():
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([CHAIN_PLAN, _candidate(MIDDLE), _candidate(SHORTER)])
    config = AgentConfig(target_length=5, max_debug_rounds=0)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == SHORTER
    assert result.calls_used == 3
    assert _refactor_targets(llm) == ["4-5", "2-3"]
    # The second step is asked against the first one's draft.
    assert MIDDLE in llm.calls[2][0]["content"]
    assert [source for _, source in compiler.calls] == [PROOF, SHORTER]
    (adoption,) = result.trace.of_kind("adoption")
    assert adoption.detail == {
        "steps": json.loads(_steps((4, 5), (2, 3))),
        "new_length": proof_length(SHORTER), "debug_rounds": 0}


@pytest.mark.parametrize("plan, budget, targets", [
    (CHAIN_PLAN, 30, ["4-5", "2-3"]),
    ("```json\n" + _steps((4, 5), (2, 3)) + "\n```", 30, ["4-5", "2-3"]),
    # 2-3 overlaps 3-4, and 4-5 overlaps both 3-4 and 5-5.
    ("```json\n" + _steps((3, 4), (2, 3), (5, 5), (4, 5)) + "\n```", 30,
     ["5-5", "3-4"]),
    (RATED_PLAN, 3, ["4-5", "2-2"]),
    (EVEN_PLAN, 3, ["4-5", "2-2"]),
], ids=["top_down", "bottom_up", "overlapping_steps_dropped",
        "best_rated_within_budget", "equal_ratings_in_plan_order"])
def test_a_plans_steps_run_bottom_up(plan, budget, targets):
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([plan] + ["no fenced block"] * len(targets)
                      + [EMPTY_PLAN])
    config = AgentConfig(budget=budget, target_length=1, max_debug_rounds=0)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert _refactor_targets(llm) == targets
    # The event lists the positions of the steps the budget did not ask.
    issued = result.trace.of_kind("plan_issued")[0].detail
    assert issued.get("unasked", []) == [
        i for i, s in enumerate(issued["steps"])
        if f"{s['line_start']}-{s['line_end']}" not in targets]


def test_a_draft_that_edits_a_line_above_its_step_ends_the_chain():
    # SHORTER drops line 4 as asked, and line 2 above it as well.
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([CHAIN_PLAN, _candidate(SHORTER), EMPTY_PLAN])
    config = AgentConfig(target_length=1, max_debug_rounds=0)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == SHORTER
    assert _refactor_targets(llm) == ["4-5"]
    assert [e.detail["steps"] for e in result.trace.of_kind("adoption")] == [
        json.loads(_steps((4, 5)))]
    assert [e.kind for e in result.trace.events] == ADOPTED[:-1] + [
        "retrieval", "plan_empty", "termination"]


def test_a_chain_that_fails_after_its_debug_rounds_adopts_nothing():
    bank, index, compiler, _ = _world()
    # The second step's draft is FAILING again once its statement is put
    # back, so it is not shorter than the chain; each debug round keeps it.
    llm = ScriptedLLM([SPLIT_PLAN, _candidate(FAILING),
                       _candidate(MUTATED_FAILING), _candidate(FAILING),
                       _candidate(FAILING), EMPTY_PLAN])
    config = AgentConfig(target_length=1, max_debug_rounds=2)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == PROOF
    assert result.trace.of_kind("adoption") == []
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "candidate not shorter",
         "candidate_length": proof_length(FAILING)},
        {"reason": "no compiling candidate", "debug_rounds": 2}]
    assert [e.detail for e in result.trace.of_kind("plan_failed")] == [
        {"steps": 2}]
    assert "- (plan of 2 steps, Failed)" in llm.calls[-1][0]["content"]


# --- putting back the lines a draft broke ------------------------------------

def _debugger_prompts(llm) -> list[str]:
    return [messages[0]["content"] for messages in llm.calls
            if "Candidate with error markers" in messages[0]["content"]]


def test_a_line_the_draft_broke_is_put_back_with_no_debugger_call():
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([_plan(2, 5), _candidate(RENAMED), EMPTY_PLAN])
    config = AgentConfig(target_length=1, max_debug_rounds=3)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == MIDDLE
    assert result.final_length == proof_length(MIDDLE)
    assert result.calls_used == 3
    assert _debugger_prompts(llm) == []
    assert [source for _, source in compiler.calls] == [PROOF, RENAMED,
                                                         MIDDLE]
    assert [e.detail for e in result.trace.of_kind("revert")] == [
        {"lines": [3]}]
    assert result.trace.of_kind("debug_round") == []
    (adoption,) = result.trace.of_kind("adoption")
    assert adoption.detail["new_length"] == proof_length(MIDDLE)
    assert adoption.detail["debug_rounds"] == 0


@pytest.mark.parametrize("draft, revert_fails, compiled", [
    # Line 4 put back gives PROOF, which is not shorter and is not
    # compiled again.
    (SIMP_CUT, False, [PROOF, SIMP_CUT, SHORTER]),
    (RENAMED, True, [PROOF, RENAMED, MIDDLE, SHORTER]),
], ids=["revert_not_shorter", "revert_fails_to_compile"])
def test_a_revert_not_taken_leaves_the_draft_to_the_debugger(
        draft, revert_fails, compiled):
    bank, index, compiler, _ = _world()
    if revert_fails:
        compiler.by_source[MIDDLE] = _flagged(3)
    llm = ScriptedLLM([_plan(2, 5), _candidate(draft), _candidate(SHORTER)])
    config = AgentConfig(target_length=5, max_debug_rounds=1)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == SHORTER
    assert [source for _, source in compiler.calls] == compiled
    assert result.trace.of_kind("revert") == []
    # The debugger is asked about the draft itself, not its revert.
    (prompt,) = _debugger_prompts(llm)
    assert splice_error_markers(
        draft, compiler.by_source[draft].errors()) in prompt
    (adoption,) = result.trace.of_kind("adoption")
    assert adoption.detail["debug_rounds"] == 1


def test_a_revert_that_alters_the_statement_is_not_taken():
    # The draft breaks its statement over lines 1-2 elsewhere, keeping the
    # statement; putting back line 2 alone would drop its "+".
    proof = "theorem t : 1 +\n  1 = 2 := by\n  norm_num\n  simp only []\n  rfl"
    draft = "theorem t : 1\n  + 1 = 2 := by\n  norm_num\n  rfl"
    altered = "theorem t : 1\n  1 = 2 := by\n  norm_num\n  rfl"
    assert agent._revert_flagged(draft, proof, _errors(2)) == altered
    assert not statement_preserved(proof, altered)
    bank, index, _, _ = _world()
    ok = CompileResult(Verdict.SUCCESS)
    compiler = MockCompiler(by_source={proof: ok, draft: _flagged(2),
                                       altered: ok})
    llm = ScriptedLLM([_plan(4, 4), _candidate(draft), EMPTY_PLAN])
    config = AgentConfig(target_length=1, max_debug_rounds=0)
    result = run_session(proof, "", config, bank, index, llm, compiler)
    assert result.final_proof == proof
    assert [source for _, source in compiler.calls] == [proof, draft]
    assert result.trace.of_kind("revert") == []
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "no compiling candidate", "debug_rounds": 0}]


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


def test_a_candidate_utf8_cannot_encode_fails_its_compile(tmp_path,
                                                          monkeypatch):
    # A JSON reply can carry a lone surrogate as "\\ud800". The real
    # compiler fails such a candidate without running lake, and the
    # session goes on.
    bank, index, _, _ = _world()
    lake = FakeLake(tmp_path, monkeypatch, "exit 0")
    script = [_plan(2, 5), _candidate(SHORTER + " -- \ud800"), EMPTY_PLAN]
    config = AgentConfig(target_length=1, max_debug_rounds=0)
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         lake.compiler)
    assert result.termination == Termination.NO_VIABLE_PLAN
    assert result.final_proof == PROOF
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "no compiling candidate", "debug_rounds": 0}]
    assert lake.saved("seen.lean") == PROOF  # lake compiled the input alone
    assert lake.scratch_left() == []


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

SPANS = st.builds(lambda a, n: (a, a + n), st.integers(1, 5),
                  st.integers(0, 2))


@st.composite
def cut_plans(draw):
    """A plan of one to three steps cut at a drawn offset, its fence
    closed or not."""
    payload = _steps(*draw(st.lists(SPANS, min_size=1, max_size=3)))
    return _cut_plan(payload, draw(st.integers(0, len(payload))),
                     draw(st.booleans()))


PLANS = st.one_of(SPANS.map(lambda span: _plan(*span)), cut_plans())
# MUTATED and MUTATED_FAILING get their statement put back, and the
# latter then fails to compile. RENAMED and SIMP_CUT fail on a line they
# changed: the first is put back, the second goes to the debugger.
CANDIDATES = st.sampled_from([_candidate(p) for p in
                              (SHORTER, MIDDLE, NATIVE_ONLY, FAILING, PROOF,
                               MUTATED, MUTATED_FAILING, UNSPLITTABLE,
                               RENAMED, SIMP_CUT)])
# Unparseable text, a transport failure, and a candidate outside any fence.
NOISE = st.sampled_from(["no json here", {"error": "transport"}, SHORTER])
STEPS = st.one_of(CANDIDATES, CANDIDATES, NOISE)

# Two to four one-line steps, disjoint, so a plan keeps them all.
DISJOINT = st.lists(st.integers(2, 5), min_size=2, max_size=4,
                    unique=True).map(lambda lines: [(a, a) for a in lines])


@st.composite
def chains(draw, spans=st.lists(SPANS, min_size=2, max_size=3) | DISJOINT):
    """A plan of two to four steps, overlapping or not, each with a drawn
    rating, then one step reply per step: a chain of shorter, failing,
    restored and not-shorter drafts."""
    spans = draw(spans)
    rated = [span + (draw(st.sampled_from(REDUCTION_LEVELS)),)
             for span in spans]
    return ["```json\n" + _steps(*rated) + "\n```"] + draw(
        st.lists(STEPS, min_size=len(spans), max_size=len(spans)))


# A plan reply then a step reply, each noise one time in three; a plan, a
# failing candidate and the reply to its first debug round; or a chain.
EXCHANGES = st.one_of(
    st.tuples(st.one_of(PLANS, PLANS, NOISE), STEPS),
    st.tuples(PLANS, st.just(_candidate(FAILING)), STEPS),
    chains(),
)


@st.composite
def sessions(draw):
    # One time in two, the first plan has more steps than the budget
    # leaves calls for: a budget of 2..n for n disjoint steps.
    first = draw(st.just([]) | chains(DISJOINT))
    budget = draw(st.integers(2, len(first) - 1) if first
                  else st.integers(0, 8))
    # At least one reply per call the budget allows: the script never runs
    # out, as every exchange holds two to five replies.
    exchanges = [first] + draw(st.lists(EXCHANGES,
                                        min_size=(budget + 1) // 2,
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
    # A round starts only with a call for its plan and one for a step, and
    # a step is attempted only when it is asked.
    assert all(e.calls_used <= config.budget - 2
               for e in result.trace.of_kind("retrieval"))
    _assert_each_attempted_step_is_asked(result, llm)
    # 5. A re-run is byte-identical.
    assert _run(script, config)[0].to_json() == result.to_json()
