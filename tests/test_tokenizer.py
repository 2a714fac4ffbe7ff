"""Lexer, length metric, and segmentation tests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooftidy.errors import MalformedDeclaration
from prooftidy.tokenizer import (
    LEAN_OPERATORS,
    LENGTH_FAILURE_SENTINEL,
    ProofSpan,
    _line_tokens,
    jitter_boundaries,
    lex,
    line_count,
    proof_length,
    remove_comments,
    segment,
    split_declaration,
)

from reference_metric import reference_proof_length

FIXTURES = Path(__file__).parent / "fixtures"


def load_corpus() -> list[dict]:
    path = FIXTURES / "tokenizer_corpus.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


# --- remove_comments --------------------------------------------------------

def test_line_comment_stripped_to_eol():
    assert remove_comments("rfl -- easy") == "rfl "


def test_nested_block_comment():
    assert remove_comments("/- a /- b -/ c -/ rfl") == " rfl"


def test_no_comment_is_identity():
    assert remove_comments("exact h") == "exact h"


def test_string_literal_untouched():
    src = 'trace "a -- b /- c -/" -- real comment'
    assert remove_comments(src) == 'trace "a -- b /- c -/" '


def test_line_comment_keeps_newline():
    assert remove_comments("rfl -- x\nomega") == "rfl \nomega"


def test_dashes_inside_block_comment_are_inert():
    assert remove_comments("/- has -- dashes -/x") == "x"


def test_unterminated_block_stripped_with_warning(caplog):
    with caplog.at_level("WARNING"):
        assert remove_comments("a /- never closed") == "a "
    assert any("unterminated" in r.message for r in caplog.records)


# --- split_declaration ------------------------------------------------------

def test_split_simple():
    src = "theorem t : 1 = 1 := by rfl"
    offset = split_declaration(src)
    assert src[offset:] == " by rfl"


def test_split_skips_nested_assignment():
    src = "theorem t (h : a := b) : P := proof"
    offset = split_declaration(src)
    assert src[offset:] == " proof"


def test_split_rejects_non_theorem():
    with pytest.raises(MalformedDeclaration):
        split_declaration("def x")


def test_split_rejects_missing_assignment():
    with pytest.raises(MalformedDeclaration):
        split_declaration("theorem t : P")


def test_split_handles_anonymous_constructor_brackets():
    src = "theorem t (p : a ⟨x := 1⟩ b) : P := by rfl"
    offset = split_declaration(src)
    assert src[offset:] == " by rfl"


# --- lex ---------------------------------------------------------------------

def total(lines: list[tuple[str, ...]]) -> int:
    return sum(map(len, lines))


def test_lex_rejoins_assignment_operator():
    result = lex("x := y")
    assert result == [("x", ":=", "y")]
    assert total(result) == 3


def test_lex_splits_underscores():
    result = lex("norm_num")
    assert result == [("norm", "_", "num")]
    assert total(result) == 3


def test_lex_joins_dots():
    result = lex("Nat.factorial")
    assert result == [("Nat.factorial",)]
    assert total(result) == 1


def test_lex_blank_line_counts_one():
    # Reference quirk: a token-free line still counts one token.
    result = lex("\n  rfl")
    assert result == [("",), ("rfl",)]
    assert total(result) == 2


def test_lex_drops_one_trailing_blank_line():
    # Reference quirk: one trailing token-free line counts zero.
    assert lex("rfl\n  ") == [("rfl",)]
    assert lex("rfl\n\n  ") == [("rfl",), ("",)]


def test_lex_is_total_on_empty():
    assert lex("") == []


@pytest.mark.parametrize("op", LEAN_OPERATORS)
def test_lex_rejoins_every_operator(op):
    assert op in lex(f"a {op} b")[0]


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
@settings(max_examples=200, deadline=None)
def test_lex_never_raises_and_preserves_characters(text):
    result = lex(text)
    for raw_line, tokens in zip(text.splitlines(), result):
        assert "".join(tokens) == "".join(ch for ch in raw_line if ch != " ")
        for token in tokens:
            assert " " not in token


@given(st.lists(st.sampled_from(["rfl", "norm_num", "x := y", "  simp"]),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_lex_ignores_trailing_spaces(lines):
    text = "\n".join(lines)
    padded = "\n".join(line + "   " for line in lines)
    assert total(lex(text)) == total(lex(padded))


# --- proof_length ------------------------------------------------------------

def test_length_of_by_rfl():
    assert proof_length("theorem t : 1 = 1 := by rfl") == 2


def test_length_sentinel_for_non_theorem():
    assert proof_length("def x") == LENGTH_FAILURE_SENTINEL == 10 ** 9


def test_length_splits_underscored_term():
    assert proof_length("theorem t : P := proof_term") == 3


def test_length_matches_reference_on_corpus():
    for case in load_corpus():
        got = proof_length(case["text"])
        want = reference_proof_length(case["text"])
        assert got == want, f"{case['id']}: {got} != {want}"


# Pieces that steer the metric's scanners: quotes and escapes, comment
# markers, brackets, the split point, join characters, line ends, headers.
FIDELITY_PIECES = list(' "\\/-\n:=()⟨⟩«»\'_.\r\tℕé²') + [
    "theorem ", "lemma ", "example ", ":=", "--", "/-", "-/", '\\"', "\\\n",
    "\\\\", "a", "x1",
]
_fidelity_text = st.lists(st.sampled_from(FIDELITY_PIECES), max_size=30).map("".join)


@given(_fidelity_text, st.sampled_from(["theorem", "lemma", "example", "def"]),
       _fidelity_text, _fidelity_text)
@settings(max_examples=500, deadline=None)
def test_length_matches_reference_on_scanner_heavy_text(prefix, keyword,
                                                         statement, body):
    text = f"{prefix}{keyword} t {statement} := {body}"
    assert proof_length(text) == reference_proof_length(text)


@given(st.lists(_fidelity_text, max_size=8), st.lists(_fidelity_text, max_size=8))
@settings(max_examples=300, deadline=None)
def test_lex_is_the_same_from_a_cold_or_a_warm_memo(lines, others):
    text = "\n".join(lines)
    _line_tokens.cache_clear()
    cold = lex(text)
    # Warm the memo with the same lines in other positions and neighbours.
    lex("\n".join(others + lines[::-1] + [""]))
    assert lex(text) == cold


def test_lex_returns_the_memos_own_tuples():
    lines = ["x := y", "  simp"]
    assert all(tokens is _line_tokens(line)
               for tokens, line in zip(lex("\n".join(lines)), lines, strict=True))


def test_lex_token_class_is_isalnum_or_join_chars():
    # Every non-surrogate code point but the space and str.splitlines breaks.
    chars = [ch for ch in map(chr, range(0x110000))
             if ch not in " \n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
             and not "\ud800" <= ch <= "\udfff"]
    expected: list[str] = []
    for ch in chars:
        if ch.isalnum() or ch in ".'":
            expected.append("a" + ch)
        else:
            expected += ["a", ch]
    assert lex(" ".join("a" + ch for ch in chars)) == [tuple(expected)]


def test_corpus_exercises_sentinel_and_comments():
    corpus = [case["text"] for case in load_corpus()]
    assert len(corpus) >= 200
    assert any(reference_proof_length(t) == 10 ** 9 for t in corpus)
    assert any("--" in t for t in corpus)
    assert any("/-" in t for t in corpus)
    for op in LEAN_OPERATORS:
        assert any(op in t for t in corpus), f"operator {op} not covered"


# --- segment -----------------------------------------------------------------

def _ranges(spans):
    return [(s.line_start, s.line_end) for s in spans]


def test_segment_windows_plus_whole():
    proof = "\n".join(f"line{i}" for i in range(1, 13))
    spans = segment(proof, [5])
    assert _ranges(spans) == [(1, 5), (6, 10), (11, 12), (1, 12)]


def test_segment_dedups_across_granularities():
    proof = "a\nb\nc"
    spans = segment(proof, [5, 10, 20])
    assert _ranges(spans) == [(1, 3), (1, 3)]  # one window + whole


def test_segment_unit_windows():
    spans = segment("a\nb", [1])
    assert _ranges(spans) == [(1, 1), (2, 2), (1, 2)]


def test_segment_empty_proof():
    spans = segment("", [5])
    assert spans == [ProofSpan(1, 1, "")]


def test_segment_span_text_matches_lines():
    proof = "alpha\nbeta\ngamma\ndelta"
    spans = segment(proof, [2])
    assert spans[0].text == "alpha\nbeta"
    assert spans[1].text == "gamma\ndelta"
    assert spans[-1].text == proof


@pytest.mark.parametrize("brk", [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
def test_lines_break_at_newline_only_as_lean_counts_them(brk):
    # str.splitlines also breaks at these; Lean's FileMap does not.
    proof = f"theorem t : P := by\n  -- see{brk}note\n  exact bad"
    assert line_count(proof) == 3
    spans = segment(proof, [2])
    assert _ranges(spans) == [(1, 2), (3, 3), (1, 3)]
    assert [s.text for s in spans] == [
        f"theorem t : P := by\n  -- see{brk}note", "  exact bad", proof]
    whole = jitter_boundaries(ProofSpan(1, 3, proof), proof, 0, seed=1)
    assert whole.text == proof


@pytest.mark.parametrize("text, count", [
    ("", 1), ("\n", 1), ("a", 1), ("a\n", 1), ("a\n\n", 2), ("a\nb", 2),
    ("\na\n\nb\n", 4)])
def test_line_count_of_newline_only_texts(text, count):
    assert line_count(text) == count == max(1, len(text.splitlines()))


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=9))
@settings(max_examples=100, deadline=None)
def test_segment_partition_per_granularity(n_lines, size):
    proof = "\n".join(f"l{i}" for i in range(n_lines))
    spans = segment(proof, [size])
    windows = spans[:-1]
    covered = []
    for span in windows:
        covered.extend(range(span.line_start, span.line_end + 1))
    assert covered == list(range(1, n_lines + 1))


# --- jitter_boundaries -------------------------------------------------------

def test_jitter_zero_is_identity():
    doc = "a\nb\nc\nd\ne"
    span = ProofSpan(2, 4, "b\nc\nd")
    assert jitter_boundaries(span, doc, 0, seed=1) == span


def test_jitter_clamps_to_document():
    doc = "a\nb\nc\nd\ne"
    span = ProofSpan(1, 5, doc)
    for seed in range(50):
        out = jitter_boundaries(span, doc, 10, seed=seed)
        assert 1 <= out.line_start <= out.line_end <= 5


def test_jitter_deterministic_under_seed():
    doc = "\n".join(f"l{i}" for i in range(30))
    span = ProofSpan(10, 20, "")
    a = jitter_boundaries(span, doc, 3, seed=42)
    b = jitter_boundaries(span, doc, 3, seed=42)
    assert a == b
