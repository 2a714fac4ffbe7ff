"""Agent tests: the statement guard that keeps every candidate proving the
same theorem, and scripted sessions."""

from __future__ import annotations

import json

import pytest

from prooftidy.agent import AgentConfig, Termination, run_session, statement_preserved
from prooftidy.bank import Bank
from prooftidy.compiler import MockCompiler, MockScript, source_hash
from prooftidy.embeddings import MockEmbedder
from prooftidy.errors import MalformedDeclaration
from prooftidy.llm import ScriptedLLM
from prooftidy.retrieval import ObjectiveMode, ObjectiveSpec, StrategyIndex
from prooftidy.tokenizer import segment, statement_text

from test_bank import REGISTRY, make_strategy


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


# --- scripted sessions -------------------------------------------------------

PROOF = ("theorem t : 1 + 1 = 2 := by\n  have h : 2 = 2 := rfl\n"
         "  norm_num\n  simp only []\n  rfl")
FAILING = ("theorem t : 1 + 1 = 2 := by\n  have h : 2 = 2 := rfl\n"
           "  exact bogus")
SHORTER = "theorem t : 1 + 1 = 2 := by\n  norm_num\n  rfl"


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


def _session(objective: ObjectiveSpec = ObjectiveSpec(), budget: int = 30,
             toolchain_version: str | None = None):
    bank = Bank(strategies={s.id: s for s in (
        make_strategy(i, when_to_apply=f"pattern {i}") for i in range(3))},
        pairs={}, registry=REGISTRY)
    embedder = CountingEmbedder()
    index = StrategyIndex.build(bank, embedder)
    embedder.batches.clear()
    ok = {"verdict": "success"}
    compiler = MockCompiler(MockScript(by_hash={
        source_hash(PROOF): ok,
        source_hash(SHORTER): ok,
        source_hash(FAILING): {"verdict": "failure",
                               "diagnostics": [[3, 2, "error", "unknown id"]]},
    }))
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
        spans = segment(proof, list(AgentConfig().chunk_sizes))
        assert batch == list(dict.fromkeys(s.text for s in spans))


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
    sizes = list(AgentConfig().chunk_sizes)
    expected = [[s.line_start, s.line_end]
                for proof in (PROOF, PROOF, SHORTER)
                for s in segment(proof, sizes)]
    # The whole-proof span repeats a window, and still warns.
    assert expected.count([1, 5]) == 4
    assert warned == expected
