"""Statement guard tests: the check that keeps every candidate proving the
same theorem."""

from __future__ import annotations

import pytest

from prooftidy.agent import statement_preserved
from prooftidy.errors import MalformedDeclaration
from prooftidy.tokenizer import statement_text


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
