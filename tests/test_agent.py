"""Agent tests: the statement guard that keeps every candidate proving the
same theorem, and scripted sessions."""

from __future__ import annotations

import json
import sys
import types
from dataclasses import asdict
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

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
    assert statement_of(source) is None


def two_scan_statement_preserved(original: str, candidate: str) -> bool:
    """The guard's rule with both texts scanned: the normalised statements
    are equal, and the original's is well formed."""
    def normalized(text):
        held = statement_of(text)
        return None if held is None else held[1]
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
    held = statement_of(source)
    return None if held is None else len(held[0])


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


def _errors(*lines: int) -> list[Diagnostic]:
    return [Diagnostic(line, 2, "error", "unknown identifier")
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


# A check's errors are ``CompileResult.errors()``: a session passes only
# those, so every case here passes error diagnostics.
@pytest.mark.parametrize("proof, candidate, errors, reverted", [
    pytest.param(REVERT_PROOF, REVERT_DRAFT, _errors(2),
                 ("theorem t : P := by\r\n  exact Nat.pos_of_ne_zero h\n"
                  "  rfl\t", [2]), id="changed_line_put_back"),
    pytest.param(TWO_BROKEN_PROOF, TWO_BROKEN_DRAFT, _errors(2, 3),
                 ("theorem t : P := by\n  simp at h\n  exact foo_bar h\n"
                  "  rfl", [2, 3]), id="two_lines_in_one_hunk"),
    # "  xa" and "  ya" are equally alike to "  xy": the first one wins.
    pytest.param("t\n  xa\n  ya\n  rfl", "t\n  xy\n  rfl", _errors(2),
                 ("t\n  xa\n  rfl", [2]), id="first_of_equally_alike"),
    pytest.param("t\n  ya\n  xa\n  rfl", "t\n  xy\n  rfl", _errors(2),
                 ("t\n  ya\n  rfl", [2]), id="first_of_equally_alike_swapped"),
    pytest.param(REVERT_PROOF, REVERT_DRAFT, _errors(1, 3, 4), None,
                 id="unchanged_lines_and_none_past_the_end"),
    pytest.param(REVERT_PROOF,
                 REVERT_PROOF.replace("  rfl", "  skip\n  rfl"), _errors(4),
                 None, id="inserted_line"),
    pytest.param(REVERT_PROOF, REVERT_DRAFT, [], None, id="no_diagnostics"),
])
def test_revert_flagged_puts_back_only_broken_changed_lines(
        proof, candidate, errors, reverted):
    assert agent._revert_flagged(candidate, proof, errors) == reverted


def _step(line_start: int, line_end: int) -> PlanStep:
    return PlanStep(line_start, line_end, "drop", "high", "")


SPLICE_CHAIN = "t\n  a\n  b\n  c\n  d"
# Lines 2-3 and 8-9 are identical pairs; a run of steps 3-3 and 9-9
# deletes the lower line of each.
TWIN_CHAIN = "\n".join(["t"] + [f"  {c}" for c in "yybcdezzfghijk"])
TWIN_DRAFT = "\n".join(["t"] + [f"  {c}" for c in "ybcdezfghijk"])


@pytest.mark.parametrize("chain, draft, steps, spliced", [
    pytest.param(SPLICE_CHAIN, "t\n  a\n  d", [(3, 4)], None,
                 id="step_lines_deleted"),
    pytest.param(SPLICE_CHAIN, "t\n  a\n  B\n  B2\n  c\n  d", [(3, 3)], None,
                 id="step_line_rewritten_as_two"),
    # difflib aligns the deletion with the other "  y", outside the step.
    pytest.param("t\n  x\n  y\n  y\n  z", "t\n  x\n  y\n  z", [(3, 3)],
                 None, id="identical_line_deleted_at_the_steps_last_line"),
    pytest.param("t\n  y\n  y\n  p\n  q", "t\n  y\n  p\n  q", [(3, 4)],
                 None, id="identical_line_deleted_at_the_steps_first_line"),
    # Lines 2-3 are one hunk: it meets the step, so it is kept whole.
    pytest.param(SPLICE_CHAIN, "t\n  A\n  c\n  d", [(3, 3)],
                 ("t\n  A\n  c\n  d", None, True), id="hunk_reaching_above"),
    pytest.param(SPLICE_CHAIN, "t\n  A\n  b\n  d", [(4, 4)],
                 ("t\n  a\n  b\n  d", [2], False), id="line_above_put_back"),
    pytest.param(SPLICE_CHAIN, "t\n  a\n  c", [(3, 3)],
                 ("t\n  a\n  c\n  d", [5], False), id="line_below_put_back"),
    pytest.param(SPLICE_CHAIN, "t\n  a\n  b\n  c\n  N\n  d", [(2, 2)],
                 (SPLICE_CHAIN, [], False), id="insertion_dropped"),
    # Insertions just before and just after the step are its own.
    pytest.param(SPLICE_CHAIN, "t\n  a\n  N1\n  b\n  N2\n  c\n  D", [(3, 3)],
                 ("t\n  a\n  N1\n  b\n  N2\n  c\n  d", [5], False),
                 id="insertions_next_to_the_step_kept"),
    # A run keeps each step's edits and puts back an edit between them.
    pytest.param(SPLICE_CHAIN + "\n  e\n  f", "t\n  b\n  C\n  d\n  f",
                 [(6, 6), (2, 2)],
                 ("t\n  b\n  c\n  d\n  f", [4], False),
                 id="run_edit_between_its_steps_put_back"),
    # difflib alone blames both deletions on lines 2 and 8, outside.
    pytest.param(TWIN_CHAIN, TWIN_DRAFT, [(9, 9), (3, 3)], None,
                 id="run_deletes_the_lower_of_two_identical_lines"),
    # The same draft as one step over lines 2-6 is that step's own.
    pytest.param(SPLICE_CHAIN + "\n  e\n  f", "t\n  b\n  C\n  d\n  f",
                 [(2, 6)], None, id="one_step_run"),
    # An edit above the step: difflib alone would keep the lower "  y",
    # outside the step, and blame the step's deletion on line 3.
    pytest.param("t\n  a\n  y\n  y\n  z", "t\n  A\n  y\n  z", [(4, 4)],
                 ("t\n  a\n  y\n  z", [2], False),
                 id="edit_above_and_identical_line_deleted"),
    # An edit below the run, whose steps each delete the upper of two
    # identical lines; difflib alone blames the first deletion on line 2.
    pytest.param("t\n  y\n  y\n  m\n  z\n  z\n  n\n  q",
                 "t\n  y\n  m\n  z\n  n\n  Q", [(6, 6), (3, 3)],
                 ("t\n  y\n  m\n  z\n  n\n  q", [8], False),
                 id="edit_below_a_run_deleting_identical_lines"),
])
def test_splice_step_keeps_only_the_steps_edits(chain, draft, steps, spliced):
    got = agent._splice_step(chain, draft, [_step(*s) for s in steps])
    if spliced is None:
        assert got == (draft, None, False) and got[0] is draft
    else:
        assert got == spliced


def _draw_spans(draw, n: int, first: int) -> list[tuple[int, int]]:
    """One to three disjoint steps of a chain of ``n`` lines, top-down,
    the first starting at line ``first`` or later."""
    spans, at = [], first
    while at <= n and len(spans) < 3 and (not spans or draw(st.booleans())):
        a = draw(st.integers(at, min(n, at + 3)))
        b = draw(st.integers(a, min(n, a + 2)))
        spans.append((a, b))
        at = b + 1
    return spans


def _draw_draft(draw, chain, spans, changed):
    """The lines a splice must give, and a draft that rewrites each
    step's lines and replaces or deletes the ``changed`` ones."""
    inside = {a: [f"  new {a}.{i}" for i in range(draw(st.integers(0, 3)))]
              for a, _ in spans}
    draft, kept = [], []
    for i, line in enumerate(chain, 1):
        kept += inside.get(i, [])
        draft += inside.get(i, [])
        if any(a <= i <= b for a, b in spans):
            continue
        kept.append(line)
        if i in changed:
            draft += draw(st.sampled_from([[], [f"  edit {i}"]]))
        else:
            draft.append(line)
    return kept, draft


@st.composite
def step_drafts(draw):
    """A chain of distinct lines, a run of one to three disjoint steps,
    and a draft that rewrites each step's lines and replaces or deletes
    some lines at least one line away from every step; the chain lines
    changed outside the steps."""
    n = draw(st.integers(1, 14))
    chain = ["t"] + [f"  line {i}" for i in range(2, n + 1)]
    spans = _draw_spans(draw, n, 1)
    far = [i for i in range(1, n + 1)
           if all(i < a - 1 or i > b + 1 for a, b in spans)]
    changed = sorted(draw(st.sets(st.sampled_from(far))) if far else [])
    kept, draft = _draw_draft(draw, chain, spans, changed)
    return chain, spans, kept, draft, changed


@given(step_drafts())
def test_a_splice_keeps_every_line_outside_the_step(drawn):
    chain, spans, kept, draft, changed = drawn
    text, restored, above = agent._splice_step(
        "\n".join(chain), "\n".join(draft), [_step(a, b) for a, b in spans])
    assert text == "\n".join(kept)
    assert restored == (changed or None)
    assert not above


@given(st.data())
def test_a_splice_keeps_a_deletion_of_the_lower_of_two_identical_lines(data):
    # The topmost step's first line repeats the line above it, and the
    # draft also edits lines at least two below the run.
    n = data.draw(st.integers(5, 14))
    chain = ["t"] + [f"  line {i}" for i in range(2, n + 1)]
    spans = _draw_spans(data.draw, n - 2, 3)
    chain[spans[0][0] - 1] = chain[spans[0][0] - 2]
    below = range(spans[-1][1] + 2, n + 1)
    changed = sorted(data.draw(st.sets(st.sampled_from(below), min_size=1)))
    kept, draft = _draw_draft(data.draw, chain, spans, changed)
    text, restored, above = agent._splice_step(
        "\n".join(chain), "\n".join(draft), [_step(a, b) for a, b in spans])
    assert (text, restored, above) == ("\n".join(kept), changed, False)


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_a_draft_with_no_edit_outside_its_steps_is_returned_as_it_is(data):
    # Each step's first line may repeat the line above it and its last
    # line the line below it.
    n = data.draw(st.integers(1, 14))
    chain = ["t"] + [f"  line {i}" for i in range(2, n + 1)]
    spans = _draw_spans(data.draw, n, 1)
    for a, b in spans:
        if a > 1 and data.draw(st.booleans()):
            chain[a - 1] = chain[a - 2]
        if b < n and data.draw(st.booleans()):
            chain[b - 1] = chain[b]
    _, draft = _draw_draft(data.draw, chain, spans, [])
    draft = "\n".join(draft)
    got = agent._splice_step("\n".join(chain), draft,
                             [_step(a, b) for a, b in spans])
    assert got == (draft, None, False) and got[0] is draft


@given(st.sets(st.integers(2, 40), min_size=1, max_size=8), st.data())
def test_a_plans_steps_split_bottom_up_into_runs_of_near_equal_size(
        lines, data):
    steps = [_step(a, a) for a in sorted(lines)]
    n = data.draw(st.integers(1, len(steps)))
    runs = agent._runs(steps, n)
    assert len(runs) == n and all(runs)
    assert [s for run in runs for s in run] == steps[::-1]
    assert max(map(len, runs)) - min(map(len, runs)) <= 1


def test_a_plan_step_beyond_the_last_lean_line_is_dropped():
    # Three lines to Lean; str.splitlines would see a fourth at the \x0c.
    proof = "theorem t : P := by\n  -- see\x0cnote\n  exact bad"
    step = {"line_start": 4, "line_end": 4, "title": "t", "reduction": "low",
            "description": "d"}
    assert _validate_steps([step], proof) == ([], [
        "step 0: lines 4-4 outside the proof's 3 lines, dropped"])


@pytest.mark.parametrize("line_start", [2.9, 2.0, True, "2", None])
def test_a_plan_step_with_a_non_integer_line_number_is_dropped(line_start):
    # int() would read 2.9 as line 2 and true as line 1, the statement line.
    proof = "theorem t : P := by\n  norm_num\n  rfl"
    step = {"line_start": line_start, "line_end": 3, "title": "t",
            "reduction": "low", "description": "d"}
    steps, warnings = _validate_steps([step, dict(step, line_start=2)], proof)
    assert [(s.line_start, s.line_end) for s in steps] == [(2, 3)]
    assert warnings == ["step 0: malformed fields, dropped"]


STEP = {"line_start": 2, "line_end": 3, "title": "t", "reduction": "low",
        "description": "d"}


@pytest.mark.parametrize("payload, kept, warnings", [
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
    steps, dropped = _validate_steps(payload, proof)
    assert [(s.line_start, s.line_end) for s in steps] == kept
    assert dropped == warnings


@pytest.mark.parametrize("raw", [
    pytest.param(json.dumps({"steps": [STEP]}), id="bare_object"),
    pytest.param("```json\n" + json.dumps({"steps": [STEP]}) + "\n```",
                 id="fenced_object"),
    pytest.param("```json\n" + json.dumps({"steps": []}) + "\n```",
                 id="object_with_no_step"),
    pytest.param("```json\n3\n```", id="number"),
    pytest.param('```json\n"steps"\n```', id="string"),
])
def test_a_plan_payload_that_is_not_an_array_is_no_plan(raw):
    # None, not an empty plan: the planner is asked once more.
    proof = "theorem t : P := by\n  norm_num\n  rfl"
    assert agent._parse_plan(raw, proof) is None


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


UNSOLVED = Diagnostic(1, 25, "error", "unsolved goals")


def _flagged(line: int) -> CompileResult:
    return CompileResult(Verdict.FAILURE, diagnostics=tuple(_errors(line)))


@pytest.fixture(scope="module", autouse=True)
def _toy_session_constants():
    """The proofs here are a few lines long: a session runs on to a target
    length of 1 and asks the debugger no round, unless a test patches
    other values. Module-scoped, so that property tests see it too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent, "TARGET_LENGTH", 1)
        patch.setattr(agent, "MAX_DEBUG_ROUNDS", 0)
        yield


def _config(monkeypatch, target_length: int = 1, max_debug_rounds: int = 0,
            **fields) -> AgentConfig:
    """``AgentConfig(**fields)`` for a session with this target length and
    these debug rounds, patched for the one test."""
    monkeypatch.setattr(agent, "TARGET_LENGTH", target_length)
    monkeypatch.setattr(agent, "MAX_DEBUG_ROUNDS", max_debug_rounds)
    return AgentConfig(**fields)


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
    failure = CompileResult(Verdict.FAILURE, diagnostics=(UNSOLVED,))
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
    config = AgentConfig(budget=budget, objective=objective,
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
    config = AgentConfig(budget=10)
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
    monkeypatch.setattr(ObjectiveSpec, "k", 3)
    objective = ObjectiveSpec(mode=ObjectiveMode.VERSION,
                              target_version="v4.22.0")
    compiler = MockCompiler(by_source={proof: CompileResult(Verdict.SUCCESS)})
    llm = ScriptedLLM([EMPTY_PLAN])
    config = _config(monkeypatch, target_length=5, max_debug_rounds=3,
                     objective=objective)
    result = run_session(proof, "", config, bank,
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
# SHORTER edits lines 2-4 of PROOF: the first step's.
TWO_STEPS = _steps((2, 4), (5, 5))
# Cut inside the second step, and inside the first.
CUT_PLAN = _cut_plan(TWO_STEPS, TWO_STEPS.index("line_end", 60), closed=True)
CUT_BEFORE_ANY_STEP = _cut_plan(TWO_STEPS, 20, closed=False)
UNCLOSED_PLAN = _cut_plan(_steps((2, 4)), None, closed=False)
NOT_AN_ARRAY = "```json\n{\"steps\": " + _steps((2, 5)) + "}\n```"
START = ["session_start", "retrieval", "plan_issued", "step_attempted"]
ADOPTED = START + ["compile_result", "adoption", "termination"]
SALVAGED = ["session_start", "retrieval", "warning"] + ADOPTED[2:]
# One skipped step, then a replan on the unchanged proof that comes back empty.
REPLANNED = ["plan_failed", "retrieval", "plan_empty", "termination"]
# Run bottom-up, its steps ask for lines 4-5 of PROOF, giving MIDDLE, then
# for lines 2-3 of MIDDLE, giving SHORTER.
CHAIN_PLAN = "```json\n" + _steps((2, 3), (4, 5)) + "\n```"
CHAINED = START + ["step_attempted"] + ADOPTED[4:]
# Run bottom-up, its steps ask for lines 3-5, then for line 2; with one
# call left, both in one call for lines 2-5.
SPLIT_PLAN = "```json\n" + _steps((3, 5), (2, 2)) + "\n```"
# Three steps with two calls left: bottom-up, 4-5 alone asks for MIDDLE,
# then 3-3 and 2-2 in one call ask for SHORTER.
PACKED_PLAN = "```json\n" + _steps((2, 2, "low"), (3, 3, "medium"),
                                    (4, 5, "high")) + "\n```"


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
        pytest.param([PACKED_PLAN, _candidate(MIDDLE), _candidate(SHORTER)],
                     {"budget": 3}, Termination.BUDGET_EXHAUSTED, SHORTER, 3,
                     CHAINED[:4] + ["step_attempted"] + CHAINED[4:], [],
                     id="plan_over_budget_packed_into_runs"),
        pytest.param([CHAIN_PLAN, _candidate(SHORTER)],
                     {"budget": 2}, Termination.BUDGET_EXHAUSTED, SHORTER, 2,
                     CHAINED, [], id="plan_over_budget_in_one_run"),
        # The corrective reparse spends the last call: no step is asked,
        # and the plan cut by the budget records no plan_failed.
        pytest.param([CUT_BEFORE_ANY_STEP, _plan(2, 5)], {"budget": 2},
                     Termination.BUDGET_EXHAUSTED, PROOF, 2,
                     START[:3] + ["termination"], [],
                     id="plan_with_no_call_left"),
        pytest.param([_plan(2, 5), "no fenced block", EMPTY_PLAN], {},
                     Termination.NO_VIABLE_PLAN, PROOF, 3,
                     START + ["step_skipped"] + REPLANNED, ["StepFailed"],
                     id="StepFailed"),
        # The billed debugger call is a round before its reply is read.
        pytest.param([_plan(2, 5), _candidate(FAILING), "no fenced block",
                      EMPTY_PLAN], {"max_debug_rounds": 1},
                     Termination.NO_VIABLE_PLAN, PROOF, 4,
                     START + ["compile_result", "debug_round", "step_skipped"]
                     + REPLANNED, ["StepFailed"], id="StepFailed_in_debug"),
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
        # An object is no plan, so it is asked again.
        pytest.param([NOT_AN_ARRAY, _plan(2, 5), _candidate(SHORTER)],
                     {"target_length": 5}, Termination.TARGET_REACHED,
                     SHORTER, 3, ADOPTED, [], id="plan_not_an_array"),
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
                     # Every step was asked, so the plan failed.
                     START + ["step_attempted", "compile_result",
                              "step_skipped", "plan_failed", "termination"],
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
        # The draft's transport retry spends the last call.
        pytest.param([_plan(2, 5), {"error": "transport"}], {"budget": 2},
                     Termination.BUDGET_EXHAUSTED, PROOF, 2,
                     ["session_start", "retrieval", "plan_issued",
                      "step_attempted", "warning", "termination"], [],
                     id="budget_spent_by_the_drafts_retry"),
        # The debugger call's transport retry spends the last call: the
        # plan is cut by the budget, so it is neither skipped nor failed.
        pytest.param([_plan(2, 5), _candidate(FAILING),
                      {"error": "transport"}],
                     {"budget": 3, "max_debug_rounds": 1},
                     Termination.BUDGET_EXHAUSTED, PROOF, 3,
                     START + ["compile_result", "warning", "termination"], [],
                     id="budget_spent_by_the_debuggers_retry"),
    ])
def test_scripted_session(script, config, termination, final, calls, kinds,
                          skipped, monkeypatch):
    bank, index, compiler, _ = _world()
    config = _config(monkeypatch, **config)
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
def test_a_cut_off_plan_keeps_its_complete_steps(reply, kept, corrective,
                                                  monkeypatch):
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([reply, EMPTY_PLAN])
    config = _config(monkeypatch, max_debug_rounds=3)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
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


def test_an_unparseable_plan_is_asked_again_after_its_own_exchange(
        monkeypatch):
    bank, index, compiler, _ = _world()
    reply = "I see no way to shorten this proof."
    llm = ScriptedLLM([reply, EMPTY_PLAN])
    config = _config(monkeypatch, max_debug_rounds=3)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    first, second = llm.calls
    assert [m["role"] for m in first] == ["user"]
    assert second == [first[0], {"role": "assistant", "content": reply},
                      {"role": "user", "content": agent.CORRECTIVE_SUFFIX}]
    assert result.termination == Termination.NO_VIABLE_PLAN


def test_checks_run_on_the_objectives_target_version():
    # The objective alone names the target: a candidate that compiles only
    # on the compiler's default toolchain must not be adopted.
    bank, index, compiler, _ = _world()
    objective = ObjectiveSpec(mode=ObjectiveMode.VERSION,
                              target_version="v4.22.0")
    config = AgentConfig(objective=objective)
    script = [_plan(2, 5), _candidate(NATIVE_ONLY), EMPTY_PLAN]
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         compiler)
    assert result.final_proof == PROOF
    assert [version for version, _ in compiler.calls] == ["v4.22.0"] * 2


# --- the session's compile memo ----------------------------------------------

@pytest.mark.parametrize("verdict", ["failure", "timeout"])
def test_an_unchanged_debugger_reply_is_not_compiled_again(verdict,
                                                           monkeypatch):
    bank, index, compiler, _ = _world()
    compiler.by_source[FAILING] = CompileResult(Verdict(verdict))
    config = _config(monkeypatch, max_debug_rounds=1)
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
    config = AgentConfig()
    script = [_plan(2, 5), _candidate(draft), EMPTY_PLAN]
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         compiler)
    assert [source for _, source in compiler.calls] == [PROOF]
    assert result.trace.of_kind("compile_result") == []
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "candidate not shorter",
         "candidate_length": proof_length(draft)}]


# --- a plan runs as one chain of drafts ---------------------------------------

def test_a_two_step_plan_is_adopted_with_one_plan_and_one_compile(monkeypatch):
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([CHAIN_PLAN, _candidate(MIDDLE), _candidate(SHORTER)])
    config = _config(monkeypatch, target_length=5)
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
    # With fewer calls left than steps, the last runs hold one step more.
    (PACKED_PLAN, 3, ["4-5", "2-3"]),
    (SPLIT_PLAN, 2, ["2-5"]),
], ids=["top_down", "bottom_up", "overlapping_steps_dropped",
        "three_steps_two_calls_left", "two_steps_one_call_left"])
def test_a_plans_steps_run_bottom_up(plan, budget, targets):
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([plan] + ["no fenced block"] * len(targets)
                      + [EMPTY_PLAN])
    config = AgentConfig(budget=budget)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert _refactor_targets(llm) == targets
    # Every step is asked.
    issued = result.trace.of_kind("plan_issued")[0].detail
    assert list(issued) == ["steps"]
    assert len(result.trace.of_kind("step_attempted")) == len(issued["steps"])


def test_a_plan_over_budget_asks_each_run_in_one_call():
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([PACKED_PLAN, _candidate(MIDDLE), _candidate(SHORTER)])
    config = AgentConfig(budget=3)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == SHORTER
    assert _refactor_targets(llm) == ["4-5", "2-3"]
    # A one-step run's prompt is the step's own.
    assert ("\nDescription: remove redundant lines\n"
            in llm.calls[1][0]["content"])
    # A run's prompt names each step, top-down, and its best rating.
    assert ("\nTitle: drop\nExpected reduction: medium\nDescription: lines "
            "2-2: remove redundant lines | lines 3-3: remove redundant lines\n"
            ) in llm.calls[2][0]["content"]
    bottom_up = json.loads(_steps((4, 5, "high"), (3, 3, "medium"),
                                  (2, 2, "low")))
    assert [e.detail["step"] for e in result.trace.of_kind(
        "step_attempted")] == bottom_up
    assert [e.calls_used for e in result.trace.of_kind("step_attempted")] == [
        1, 2, 2]
    (adoption,) = result.trace.of_kind("adoption")
    assert adoption.detail["steps"] == bottom_up
    assert result.trace.of_kind("plan_issued")[0].detail == {
        "steps": json.loads(_steps((2, 2, "low"), (3, 3, "medium"),
                                   (4, 5, "high")))}


def test_a_draft_that_edits_a_line_above_its_step_ends_the_chain():
    # NATIVE_ONLY replaces lines 2-5 with one line: the one hunk meets the
    # step's lines 4-5, so it is kept, and reaches lines 2-3 above them.
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([CHAIN_PLAN, _candidate(NATIVE_ONLY), EMPTY_PLAN])
    config = AgentConfig()
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == NATIVE_ONLY
    assert _refactor_targets(llm) == ["4-5"]
    assert [e.detail["steps"] for e in result.trace.of_kind("adoption")] == [
        json.loads(_steps((4, 5)))]
    assert [e.kind for e in result.trace.events] == ADOPTED[:-1] + [
        "retrieval", "plan_empty", "termination"]


# --- a draft keeps every line outside its step --------------------------------

PUT_BACK = "draft edited lines outside its step; put the chain's back"


def test_a_drafts_edit_outside_its_step_is_put_back_before_the_compile():
    # SHORTER drops line 4 as asked, and line 2 as well: line 2 comes back,
    # which gives MIDDLE.
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([_plan(4, 4), _candidate(SHORTER), EMPTY_PLAN])
    config = AgentConfig()
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == MIDDLE
    assert [source for _, source in compiler.calls] == [PROOF, MIDDLE]
    assert [e.detail for e in result.trace.of_kind("warning")] == [
        {"message": PUT_BACK, "lines": [2]}]
    assert [e.kind for e in result.trace.events] == START + [
        "warning", "compile_result", "adoption", "retrieval", "plan_empty",
        "termination"]


def test_a_draft_that_edits_only_outside_its_step_is_not_compiled():
    # MIDDLE drops line 4, below the step's lines 2-3: put back, it is PROOF.
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([_plan(2, 3), _candidate(MIDDLE), EMPTY_PLAN])
    config = AgentConfig()
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == PROOF
    assert [source for _, source in compiler.calls] == [PROOF]
    assert [e.detail for e in result.trace.of_kind("warning")] == [
        {"message": PUT_BACK, "lines": [4]}]
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "candidate not shorter",
         "candidate_length": proof_length(PROOF)}]


def test_a_put_back_that_would_alter_the_statement_skips_the_step():
    # The draft moves the statement's "+" from line 1 to line 3, past the
    # comment on line 2; the step holds line 1 alone, so putting back line
    # 3 would leave "1 1 = 2".
    proof = ("theorem t : 1 +\n  -- note\n  1 = 2 := by\n  norm_num\n"
             "  simp only []\n  rfl")
    draft = proof.replace("1 +\n", "1\n").replace("  1 = 2", "  + 1 = 2")
    assert statement_preserved(proof, draft)
    bank, index, _, _ = _world()
    compiler = MockCompiler(by_source={proof: CompileResult(Verdict.SUCCESS)})
    llm = ScriptedLLM([_plan(1, 1), _candidate(draft), EMPTY_PLAN])
    config = AgentConfig()
    result = run_session(proof, "", config, bank, index, llm, compiler)
    assert result.final_proof == proof
    assert [source for _, source in compiler.calls] == [proof]
    assert result.trace.of_kind("warning") == []
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "StatementMutation",
         "message": "putting back the edits outside the step altered the "
                    "statement"}]


def test_a_chain_that_fails_after_its_debug_rounds_adopts_nothing(monkeypatch):
    bank, index, compiler, _ = _world()
    # The second step's draft is FAILING again once its statement is put
    # back, so it is not shorter than the chain; each debug round keeps it.
    llm = ScriptedLLM([SPLIT_PLAN, _candidate(FAILING),
                       _candidate(MUTATED_FAILING), _candidate(FAILING),
                       _candidate(FAILING), EMPTY_PLAN])
    config = _config(monkeypatch, max_debug_rounds=2)
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


@pytest.mark.parametrize("verdict, diagnostics, marked, messages", [
    pytest.param(Verdict.FAILURE,
                 (UNSOLVED, Diagnostic(2, 2, "warning", "unused variable")),
                 splice_error_markers(FAILING, [UNSOLVED]),
                 "line 1, column 25: unsolved goals", id="failure"),
    pytest.param(Verdict.FAILURE, (), FAILING, "compilation failed",
                 id="failure_without_diagnostics"),
    pytest.param(Verdict.TIMEOUT, (), FAILING, "compilation timed out",
                 id="timeout"),
    # A timeout's diagnostics are not trusted: the candidate goes unmarked.
    pytest.param(Verdict.TIMEOUT, (UNSOLVED,), FAILING,
                 "compilation timed out", id="timeout_with_an_error"),
])
def test_the_debugger_is_shown_the_candidate_as_its_verdict_allows(
        verdict, diagnostics, marked, messages, monkeypatch):
    bank, index, compiler, _ = _world()
    compiler.by_source[FAILING] = CompileResult(verdict, diagnostics)
    llm = ScriptedLLM([_plan(2, 5), _candidate(FAILING), _candidate(FAILING),
                       EMPTY_PLAN])
    config = _config(monkeypatch, max_debug_rounds=1)
    run_session(PROOF, "", config, bank, index, llm, compiler)
    (prompt,) = _debugger_prompts(llm)
    head, listed = prompt.split("\n## Compiler messages\n\n")
    assert head.split("## Candidate with error markers\n\n")[1] == (
        marked + "\n")
    assert listed.split("\n\n")[0] == messages


def test_a_line_the_draft_broke_is_put_back_with_no_debugger_call(monkeypatch):
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([_plan(2, 5), _candidate(RENAMED), EMPTY_PLAN])
    config = _config(monkeypatch, max_debug_rounds=3)
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


@pytest.mark.parametrize("draft, revert_fails, compiled, reverted", [
    # Line 4 put back gives PROOF, which is not shorter and is not
    # compiled again.
    (SIMP_CUT, False, [PROOF, SIMP_CUT, SHORTER],
     {"lines": [4], "rejected": "not shorter"}),
    (RENAMED, True, [PROOF, RENAMED, MIDDLE, SHORTER],
     {"lines": [3], "rejected": "does not compile", "verdict": "failure"}),
], ids=["revert_not_shorter", "revert_fails_to_compile"])
def test_a_revert_not_taken_leaves_the_draft_to_the_debugger(
        draft, revert_fails, compiled, reverted, monkeypatch):
    bank, index, compiler, _ = _world()
    if revert_fails:
        compiler.by_source[MIDDLE] = _flagged(3)
    llm = ScriptedLLM([_plan(2, 5), _candidate(draft), _candidate(SHORTER)])
    config = _config(monkeypatch, target_length=5, max_debug_rounds=1)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == SHORTER
    assert [source for _, source in compiler.calls] == compiled
    assert [e.detail for e in result.trace.of_kind("revert")] == [reverted]
    # Every compile after the precheck is in the trace, the revert's too.
    verdicts = [e for e in result.trace.events if "verdict" in e.detail]
    assert len(verdicts) == len(compiled) - 1
    # The debugger is asked about the draft itself, not its revert.
    (prompt,) = _debugger_prompts(llm)
    assert splice_error_markers(
        draft, compiler.by_source[draft].errors()) in prompt
    (adoption,) = result.trace.of_kind("adoption")
    assert adoption.detail["debug_rounds"] == 1


def test_a_debugger_reply_whose_revert_is_taken_counts_its_round(monkeypatch):
    # FAILING fails on line 1, which no revert puts back; the debugger's
    # RENAMED fails on its changed line 3, which put back gives MIDDLE.
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([_plan(2, 5), _candidate(FAILING), _candidate(RENAMED),
                       EMPTY_PLAN])
    config = _config(monkeypatch, max_debug_rounds=1)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == MIDDLE
    assert [source for _, source in compiler.calls] == [PROOF, FAILING,
                                                         RENAMED, MIDDLE]
    assert [e.detail for e in result.trace.of_kind("revert")] == [
        {"lines": [3]}]
    (adoption,) = result.trace.of_kind("adoption")
    assert adoption.detail == {"steps": json.loads(_steps((2, 5))),
                               "new_length": proof_length(MIDDLE),
                               "debug_rounds": 1}
    assert result.trace.of_kind("step_skipped") == []


def test_a_debugger_reply_that_is_not_shorter_is_skipped_with_its_length(
        monkeypatch):
    # The debugger answers FAILING with PROOF itself: it compiles (the
    # precheck's check, from the memo) but is not shorter.
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([_plan(2, 5), _candidate(FAILING), _candidate(PROOF),
                       EMPTY_PLAN])
    config = _config(monkeypatch, max_debug_rounds=1)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == PROOF
    assert result.trace.of_kind("adoption") == []
    assert [e.detail for e in result.trace.of_kind("compile_result")] == [
        {"verdict": "failure"}, {"verdict": "success", "cached": True}]
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "candidate not shorter",
         "candidate_length": proof_length(PROOF)}]
    assert [e.detail for e in result.trace.of_kind("plan_failed")] == [
        {"steps": 1}]


def test_a_failing_check_with_only_warnings_goes_to_the_debugger(monkeypatch):
    # RENAMED's changed line 3 carries a warning: no error flags a line,
    # so nothing is put back and the debugger is asked.
    bank, index, compiler, _ = _world()
    compiler.by_source[RENAMED] = CompileResult(Verdict.FAILURE, diagnostics=(
        Diagnostic(3, 2, "warning", "unused variable"),))
    llm = ScriptedLLM([_plan(2, 5), _candidate(RENAMED), _candidate(SHORTER)])
    config = _config(monkeypatch, target_length=5, max_debug_rounds=1)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == SHORTER
    assert [source for _, source in compiler.calls] == [PROOF, RENAMED,
                                                         SHORTER]
    assert result.trace.of_kind("revert") == []
    (prompt,) = _debugger_prompts(llm)
    # Unmarked, and with no message: the warning is no error.
    assert RENAMED in prompt and "compilation failed" in prompt
    (adoption,) = result.trace.of_kind("adoption")
    assert adoption.detail["debug_rounds"] == 1


def test_a_revert_that_alters_the_statement_is_not_taken():
    # The draft breaks its statement over lines 1-2 elsewhere, keeping the
    # statement, and drops line 4, all within its step's lines 1-4;
    # putting back line 2 alone would drop its "+".
    proof = "theorem t : 1 +\n  1 = 2 := by\n  norm_num\n  simp only []\n  rfl"
    draft = "theorem t : 1\n  + 1 = 2 := by\n  norm_num\n  rfl"
    altered = "theorem t : 1\n  1 = 2 := by\n  norm_num\n  rfl"
    assert agent._revert_flagged(draft, proof, _errors(2)) == (altered, [2])
    assert not statement_preserved(proof, altered)
    bank, index, _, _ = _world()
    ok = CompileResult(Verdict.SUCCESS)
    compiler = MockCompiler(by_source={proof: ok, draft: _flagged(2),
                                       altered: ok})
    llm = ScriptedLLM([_plan(1, 4), _candidate(draft), EMPTY_PLAN])
    config = AgentConfig()
    result = run_session(proof, "", config, bank, index, llm, compiler)
    assert result.final_proof == proof
    assert [source for _, source in compiler.calls] == [proof, draft]
    assert [e.detail for e in result.trace.of_kind("revert")] == [
        {"lines": [2], "rejected": "statement altered"}]
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "no compiling candidate", "debug_rounds": 0}]


# --- every reply is read against the input -----------------------------------

def test_a_session_scans_its_inputs_statement_once(monkeypatch):
    scanned = []

    def counted(text):
        scanned.append(text)
        return statement_of(text)

    monkeypatch.setattr(agent, "statement_of", counted)
    agent._statement_of.cache_clear()
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM([CHAIN_PLAN, _candidate(MIDDLE), _candidate(SHORTER)])
    config = _config(monkeypatch, target_length=5)
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert result.final_proof == SHORTER
    # Both drafts start with the input's header, so neither is scanned.
    assert scanned == [PROOF]


def test_a_put_back_statement_is_the_inputs_after_a_header_rewrite():
    # MIDDLE with a doubled space in its header: same statement, new bytes.
    spaced = MIDDLE.replace("t : 1", "t :  1")
    bank, index, compiler, _ = _world()
    compiler.by_source[spaced] = CompileResult(Verdict.SUCCESS)
    # The first round's step takes in the header; the second round's reply
    # alters the statement and drops line 2.
    llm = ScriptedLLM([_plan(1, 4), _candidate(spaced), _plan(2, 2),
                       _candidate(MUTATED), EMPTY_PLAN])
    config = AgentConfig()
    result = run_session(PROOF, "", config, bank, index, llm, compiler)
    assert [e.detail["new_length"] for e in result.trace.of_kind("adoption")] \
        == [proof_length(spaced), proof_length(SHORTER)]
    # The input's header comes back, not the adopted proof's.
    assert result.final_proof == SHORTER
    assert [e.detail["message"] for e in result.trace.of_kind("warning")] == [
        "candidate altered the theorem statement; put the statement back"]


# --- faults from outside the process -----------------------------------------

# Not in the compiler's script.
UNCOVERED = "theorem t : 1 + 1 = 2 := by\n  simp"
# UNCOVERED with its line 2 put back as SHORTER has it.
UNCOVERED_REVERTED = "theorem t : 1 + 1 = 2 := by\n  norm_num"
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


def _revert_check_fails(exc: Exception):
    """UNCOVERED fails on its changed line 2, and the check of its revert
    raises ``exc``."""
    def fault(compiler, embedder):
        compiler.by_source[UNCOVERED] = _flagged(2)
        _check_fails_on(UNCOVERED_REVERTED, exc)(compiler, embedder)
    return fault


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
    pytest.param(_revert_check_fails(ToolchainMissing("no lake")),
                 "ToolchainMissing", SECOND_ROUND + ["compile_result"],
                 id="ToolchainMissing_in_a_revert"),
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
    config = AgentConfig()
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
    config = AgentConfig()
    result = run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                         lake.compiler)
    assert result.termination == Termination.NO_VIABLE_PLAN
    assert result.final_proof == PROOF
    assert [e.detail for e in result.trace.of_kind("step_skipped")] == [
        {"reason": "no compiling candidate", "debug_rounds": 0}]
    assert lake.saved("seen.lean") == PROOF  # lake compiled the input alone
    assert lake.scratch_left() == []


@pytest.mark.parametrize("source", [
    "def f : Nat := by\n  exact 1",
    # The statement reads, but the length split counts the string's "(".
    'theorem t : "(" = "(" := by\n  rfl',
], ids=["no_statement", "unmeasurable"])
def test_an_input_the_session_cannot_work_on_is_refused(source):
    bank, index, compiler, embedder = _world()
    llm = ScriptedLLM([_plan(2, 2)] * 6)
    with pytest.raises(PreconditionFailed):
        run_session(source, "", AgentConfig(budget=6), bank, index, llm,
                    compiler)
    assert llm.calls == compiler.calls == embedder.batches == []


def test_an_input_that_fails_to_compile_is_refused():
    bank, index, compiler, _ = _world()
    with pytest.raises(PreconditionFailed):
        run_session(FAILING, "", AgentConfig(), bank, index, ScriptedLLM([]),
                    compiler)


@pytest.mark.parametrize("field, value", [
    ("budget", -1), ("budget", 2.5), ("budget", True)])
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
def test_a_session_over_an_empty_bank_retrieves_nothing(objective,
                                                        monkeypatch):
    # The empty-bank baseline: the loop runs as scripted on no strategies.
    _, _, compiler, _ = _world()
    bank = Bank(strategies={}, registry=REGISTRY)
    index = StrategyIndex.build(bank, MockEmbedder(dimension=16, seed=3))
    config = _config(monkeypatch, target_length=5, objective=objective)
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
    LLM and compiler: three objectives, four scripts, four budgets; its
    caller patches one debug round."""
    objective = (ObjectiveSpec(),
                 ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME),
                 ObjectiveSpec(mode=ObjectiveMode.VERSION,
                               target_version="v4.22.0"))[i % 3]
    script = (SCRIPT, ADOPT_THEN_UNCOVERED,
              [_plan(2, 5), _candidate(FAILING), _candidate(SHORTER)],
              [_plan(2, 5), _candidate(NATIVE_ONLY), EMPTY_PLAN])[i // 3 % 4]
    config = AgentConfig(budget=(1, 3, 5, 30)[i // 12], objective=objective)
    _, _, compiler, _ = _world()
    return run_session(PROOF, "", config, bank, index, ScriptedLLM(script),
                       compiler).to_json()


def test_parallel_sessions_over_one_bank_and_index_match_a_sequential_run(
        monkeypatch):
    monkeypatch.setattr(agent, "MAX_DEBUG_ROUNDS", 1)
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
    # leaves calls for, so they are packed into runs: a budget of 2..n for
    # n disjoint steps.
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
                         objective=draw(st.sampled_from(modes)),
                         toolchain_version=target)
    constants = {"TARGET_LENGTH": draw(st.sampled_from([2, 5, 17])),
                 "MAX_DEBUG_ROUNDS": draw(st.integers(0, 2))}
    return script, config, constants


def _run(script, config, constants):
    """The session, with the agent's ``constants`` patched for its run."""
    bank, index, compiler, _ = _world()
    llm = ScriptedLLM(script)
    with mock.patch.multiple(agent, **constants):
        result = run_session(PROOF, "", config, bank, index, llm, compiler)
    return result, llm, compiler


@given(sessions())
@settings(max_examples=200, deadline=None)
def test_session_keeps_its_five_promises(drawn):
    script, config, constants = drawn
    result, llm, compiler = _run(script, config, constants)
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
    assert _run(script, config, constants)[0].to_json() == result.to_json()
