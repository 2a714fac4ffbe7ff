"""Layer microbenchmarks for the token metric.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_tokenizer.py

Times ``remove_comments``, ``lex``, ``proof_length`` and ``segment`` on
research-style proofs of about 2, 8 and 16 kB. A proof is one ``theorem`` header and a
seeded ``by`` block of tactic lines with line comments, nested block
comments and a few string literals; ``lex`` gets the proof with its
comments already removed, as ``proof_length`` hands it on. ``lex`` and
``proof_length`` start each round with an empty line memo, so they give
the cold figure. ``test_session_pattern`` is what a session asks of the
memo: the length of one proof, then of four candidates that each change
one of its lines, from an empty memo per round. ``segment`` cuts the
proof into the session's default windows of 5, 10 and 20 lines.
"""

from __future__ import annotations

import functools
import random

import pytest

from prooftidy.tokenizer import (
    _line_tokens,
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
    result = benchmark.pedantic(lex, (body,), setup=_line_tokens.cache_clear,
                                rounds=ROUNDS)
    assert sum(map(len, result)) > 0


@pytest.mark.parametrize("kb", SIZES_KB)
def test_proof_length(benchmark, kb):
    result = benchmark.pedantic(proof_length, (proof(kb),),
                                setup=_line_tokens.cache_clear, rounds=ROUNDS)
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

    result = benchmark.pedantic(lengths, setup=_line_tokens.cache_clear,
                                rounds=ROUNDS)
    assert all(0 < n < 10 ** 9 for n in result)


@pytest.mark.parametrize("kb", SIZES_KB)
def test_segment(benchmark, kb):
    text = proof(kb)
    result = benchmark(segment, text, [5, 10, 20])
    assert result[-1].text == text
