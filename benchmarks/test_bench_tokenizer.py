"""Layer microbenchmarks for the token metric.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_tokenizer.py

Times ``remove_comments``, ``lex``, ``proof_length`` and ``segment`` on
research-style proofs of about 2, 8 and 16 kB. A proof is one ``theorem`` header and a
seeded ``by`` block of tactic lines with line comments, nested block
comments and a few string literals; ``lex`` gets the proof with its
comments already removed, as ``proof_length`` hands it on; it keeps no
memo. ``proof_length`` starts each round with an empty line-count memo,
so it gives the cold figure, and records in ``extra_info`` the
``tracemalloc`` heap of a full memo (1024 distinct tactic lines, the
lines themselves not counted). ``test_session_pattern`` is what a
session asks of the memo: the length of one proof, then of four
candidates that each change one of its lines, from an empty memo per
round. ``test_statement_preserved``
is what a session asks of the statement guard over one plan: the proof
against five candidates, four that each change one tactic line and so
repeat its statement bytes, and one that reformats the statement's
whitespace, from an empty statement memo per round. ``segment`` cuts the
proof into windows of the session's default sizes, 5, 10 and 20 lines.
``test_segment_after_deletions`` is what a session asks of ``segment``
and its span-text memo over ten adoptions that each delete one line: it
cuts the proof and each shorter one and counts the distinct span texts,
the texts a session embeds and retrieves.
"""

from __future__ import annotations

import functools
import random
import tracemalloc

import pytest

from prooftidy.agent import _statement_of, statement_preserved
from prooftidy.tokenizer import (
    _line_length,
    lex,
    proof_length,
    remove_comments,
    segment,
    split_declaration,
)

SIZES_KB = (2, 8, 16)
ROUNDS = 200
NAMES = ("Nat.add_comm", "mul_le_mul", "sq_nonneg", "Finset.sum_le_sum",
         "abs_sub_lt_iff", "h_bound", "pow_two")


def _line(rng: random.Random, j: int) -> str:
    name = lambda: rng.choice(NAMES)  # noqa: E731
    roll = rng.random()
    if roll < 0.1:
        return f"  -- step {j}: rewrite with {name()} before closing"
    if roll < 0.15:
        return f"  /- note {j}: {name()} /- nested -/ holds here\n     too -/"
    if roll < 0.18:
        return f'  trace "goal {j} -- kept /- as text"'
    return rng.choice((
        f"  have h{j} : a * b ≤ a * b + {j} := by positivity",
        f"  simp only [{name()}, {name()}] at h{j % 7}",
        f"  rw [{name()}, ← {name()}]",
        f"  obtain ⟨w{j}, hw{j}⟩ := h{j % 5}",
        f"  nlinarith [{name()} (a - b), {name()} c]",
        f"  calc a * c ≤ b * c + {j} := {name()} h0",
        "  refine ⟨_, fun x => ?_⟩ <;> omega",
    ))


@functools.cache
def proof(kb: int) -> str:
    rng = random.Random(kb)
    lines = ["theorem bench (a b c : ℕ) (h0 : 0 < a) : a * c ≤ b * c + a := by"]
    size = len(lines[0])
    while size < kb * 1024:
        lines.append(_line(rng, len(lines)))
        size += len(lines[-1]) + 1
    return "\n".join(lines)


@pytest.mark.parametrize("kb", SIZES_KB)
def test_remove_comments(benchmark, kb):
    text = proof(kb)
    result = benchmark(remove_comments, text)
    assert "-- step" not in result and "note" not in result


@pytest.mark.parametrize("kb", SIZES_KB)
def test_lex(benchmark, kb):
    cleaned = remove_comments(proof(kb))
    body = cleaned[split_declaration(cleaned):]
    result = benchmark.pedantic(lex, (body,), rounds=ROUNDS)
    assert sum(map(len, result)) > 0


def full_memo_kib() -> float:
    """The ``tracemalloc`` heap of the line-count memo filled with as many
    distinct tactic lines as it holds, in KiB; the lines are made first."""
    rng = random.Random(0)
    lines: dict[str, None] = {}
    while len(lines) < _line_length.cache_info().maxsize:
        lines[_line(rng, len(lines)).split("\n")[0]] = None
    _line_length.cache_clear()
    tracemalloc.start()
    try:
        for line in lines:
            _line_length(line)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return round(held / 1024, 1)


@pytest.mark.parametrize("kb", SIZES_KB)
def test_proof_length(benchmark, kb):
    benchmark.extra_info["full_memo_tracemalloc_kib"] = full_memo_kib()
    result = benchmark.pedantic(proof_length, (proof(kb),),
                                setup=_line_length.cache_clear, rounds=ROUNDS)
    assert 0 < result < 10 ** 9


def candidates(kb: int) -> list[str]:
    """The proof, then four copies that each change one tactic line."""
    lines = proof(kb).split("\n")
    rng = random.Random(kb + 1)
    texts = [proof(kb)]
    for j in rng.sample(range(1, len(lines)), 4):
        changed = list(lines)
        changed[j] = "  simp only [mul_comm] at *"
        texts.append("\n".join(changed))
    return texts


@pytest.mark.parametrize("kb", SIZES_KB)
def test_session_pattern(benchmark, kb):
    texts = candidates(kb)

    def lengths():
        return [proof_length(text) for text in texts]

    result = benchmark.pedantic(lengths, setup=_line_length.cache_clear,
                                rounds=ROUNDS)
    assert all(0 < n < 10 ** 9 for n in result)


@pytest.mark.parametrize("kb", SIZES_KB)
def test_statement_preserved(benchmark, kb):
    original, *changed = candidates(kb)
    reformatted = original.replace("theorem bench (a b c",
                                   "theorem  bench\n    (a b c", 1)
    texts = changed + [reformatted]

    def guard():
        return [statement_preserved(original, text) for text in texts]

    result = benchmark.pedantic(guard, setup=_statement_of.cache_clear,
                                rounds=ROUNDS)
    assert result == [True] * 5


@pytest.mark.parametrize("kb", SIZES_KB)
def test_segment(benchmark, kb):
    text = proof(kb)
    result = benchmark(segment, text, [5, 10, 20])
    assert result[-1].text == text


#: Distinct span texts over a proof and its ten deletions, per proof size.
FRESH_TEXTS = {2: 56, 8: 112, 16: 167}


def deletions(kb: int) -> list[str]:
    """The proof, then ten proofs that each lack one more tactic line."""
    lines = proof(kb).split("\n")
    rng = random.Random(kb + 2)
    texts = [proof(kb)]
    for _ in range(10):
        del lines[rng.randrange(1, len(lines))]
        texts.append("\n".join(lines))
    return texts


@pytest.mark.parametrize("kb", SIZES_KB)
def test_segment_after_deletions(benchmark, kb):
    texts = deletions(kb)

    def fresh_texts():
        return len({span.text for text in texts
                    for span in segment(text, [5, 10, 20])})

    assert benchmark(fresh_texts) == FRESH_TEXTS[kb]
