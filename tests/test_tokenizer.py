"""Lexer, length metric, and segmentation tests."""

from __future__ import annotations

import json
import zlib
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
    _lines,
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
    # Lines 1, 4, 6 and 9 hash to 0 mod 5. A window holds at least
    # 5 // 2 lines, so line 1 is too early for a cut; the windows end after
    # lines 4, 6 and 9, and the last one at the end of the proof.
    lines = [f"line{i}" for i in range(1, 13)]
    assert [i for i, line in enumerate(lines, 1)
            if zlib.crc32(line.encode()) % 5 == 0] == [1, 4, 6, 9]
    spans = segment("\n".join(lines), [5])
    assert _ranges(spans) == [(1, 4), (5, 6), (7, 9), (10, 12), (1, 12)]


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
    # Only "alpha" hashes to 0 mod 2, so it ends the first window and the
    # rest runs to the end of the proof.
    proof = "alpha\nbeta\ngamma\ndelta"
    spans = segment(proof, [2])
    assert _ranges(spans) == [(1, 1), (2, 4), (1, 4)]
    assert spans[0].text == "alpha"
    assert spans[1].text == "beta\ngamma\ndelta"
    assert spans[-1].text == proof


@pytest.mark.parametrize("brk", [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
def test_lines_break_at_newline_only_as_lean_counts_them(brk):
    # str.splitlines also breaks at these; Lean's FileMap does not.
    proof = f"theorem t : P := by\n  -- see{brk}note\n  exact bad"
    assert line_count(proof) == 3
    lines = proof.split("\n")
    spans = segment(proof, [2])
    for span in spans:
        assert 1 <= span.line_start <= span.line_end <= 3
        assert span.text == "\n".join(lines[span.line_start - 1:span.line_end])
        # No span starts or ends inside line 2.
        assert ("see" in span.text) == (f"see{brk}note" in span.text)
    assert spans[-1] == ProofSpan(1, 3, proof)


@pytest.mark.parametrize("text, count", [
    ("", 1), ("\n", 1), ("a", 1), ("a\n", 1), ("a\n\n", 2), ("a\nb", 2),
    ("\na\n\nb\n", 4)])
def test_line_count_of_newline_only_texts(text, count):
    assert line_count(text) == count == max(1, len(text.splitlines()))


@given(st.text(alphabet=st.sampled_from(["a", " ", "\n", "\r", "\x0c",
                                         "\u2028", "é"])) | st.text())
@settings(max_examples=500, deadline=None)
def test_line_count_counts_the_lines_it_would_split(text):
    for case in (text, "", "\n", "\r", text + "\n", text + "\r"):
        assert line_count(case) == max(1, len(_lines(case)))


def _windows(lines: list[str], size: int) -> list[ProofSpan]:
    return segment("\n".join(lines), [size])[:-1]


def _check_windows(lines: list[str], size: int) -> list[ProofSpan]:
    """The windows of one size, after checking the contract of each: a
    window ends at its first line, from line ``max(1, size // 2)`` on,
    whose stripped text hashes to 0 mod ``size``, else at ``2 * size``
    lines; the last one may end sooner, at the end of the proof."""
    windows = _windows(lines, size)
    covered = []
    for span in windows:
        covered.extend(range(span.line_start, span.line_end + 1))
        held = lines[span.line_start - 1:span.line_end]
        assert span.text == "\n".join(held)
        cuts = [k for k, line in enumerate(held, 1)
                if k >= max(1, size // 2) and zlib.crc32(
                    line.strip().encode("utf-8", "surrogatepass")) % size == 0]
        end = (cuts or [2 * size])[0]
        assert len(held) == end or (span is windows[-1] and len(held) < end)
    assert covered == list(range(1, len(lines) + 1))
    return windows


# Lines from a small alphabet: some repeat, most hash differently, and
# blank or space-only ones strip to "", which hashes to 0.
LINES = st.lists(st.text(alphabet="ab \t:=", max_size=6), min_size=1,
                 max_size=60).map(lambda lines: lines + ["qed"])


@given(LINES, st.integers(min_value=1, max_value=21))
@settings(max_examples=200, deadline=None)
def test_segment_partition_per_granularity(lines, size):
    windows = _check_windows(lines, size)
    for j in range(1, len(lines)):
        edited = lines[:j - 1] + lines[j:]
        after = _check_windows(edited, size)
        above = [span for span in windows if span.line_end < j]
        assert after[:len(above)] == above


# Deleting line 22 changes exactly one window per size: the window that
# holds it ends at a line that hashes to 0 mod the size with more than
# size // 2 lines, so without line 22 it ends after the same line, and
# every window below starts and ends after the same lines as before.
ONE_WINDOW_PROOF = ["theorem t : True := by"] + [
    f"  have h{i} : {i} + 0 = {i} := by simp" for i in range(1, 47)] + [
    "  trivial"]
DELETED_LINE = 22


@pytest.mark.parametrize("size, before, after", [
    (5, (21, 23), (21, 22)), (10, (11, 23), (11, 22)),
    (20, (11, 37), (11, 36))])
def test_a_deletion_changes_only_the_window_that_held_the_line(
        size, before, after):
    edited = (ONE_WINDOW_PROOF[:DELETED_LINE - 1]
              + ONE_WINDOW_PROOF[DELETED_LINE:])
    old = _check_windows(ONE_WINDOW_PROOF, size)
    new = _check_windows(edited, size)
    assert [_ranges([s]) for s in old if s.text not in
            {t.text for t in new}] == [[before]]
    assert [_ranges([s]) for s in new if s.text not in
            {t.text for t in old}] == [[after]]


@pytest.mark.parametrize("size", [4, 5, 10, 20])
def test_a_blank_line_is_a_cut_once_the_window_holds_half_its_size(size):
    assert zlib.crc32(b"") == 0
    shortest = size // 2
    filler = [f"l{i}" for i in range(100)
              if zlib.crc32(f"l{i}".encode()) % size][:3 * size]
    # The first blank line is too early to end a window; the space-only
    # one, at line size // 2, ends it.
    lines = [""] + filler[:shortest - 2] + ["   "] + filler
    assert _ranges(_windows(lines, size)[:1]) == [(1, shortest)]

