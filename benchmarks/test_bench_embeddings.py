"""Layer microbenchmarks for the embedding port.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_embeddings.py

Times one ``MockEmbedder.embed`` call over 244 texts, the texts a traced
``longproof_compile`` session embeds on average, and one ``_check_batch``
of those 244 vectors. ``_check_batch`` takes them as a list of 1-D
arrays, the form in which ``HttpEmbedder`` parses a reply, and returns
them stacked as one (244 × 32) array. A text is a seeded window of one to
eight tactic lines.
"""

from __future__ import annotations

import random

from prooftidy.embeddings import MockEmbedder, _check_batch

N_TEXTS = 244
LINES = ("  simp only [Nat.add_comm, mul_le_mul] at h",
         "  obtain ⟨w, hw⟩ := h0",
         "  nlinarith [sq_nonneg (a - b), sq_nonneg c]",
         "  rw [Finset.sum_le_sum, ← pow_two]",
         "  have h1 : a * b ≤ a * b + 1 := by positivity",
         "  refine ⟨_, fun x => ?_⟩ <;> omega")


def texts() -> list[str]:
    rng = random.Random(0)
    return ["\n".join(rng.choice(LINES) for _ in range(rng.randint(1, 8)))
            + f"\n  exact h{i}" for i in range(N_TEXTS)]


def test_embed(benchmark):
    embedder = MockEmbedder()
    batch = texts()
    result = benchmark(embedder.embed, batch)
    assert result.shape == (N_TEXTS, embedder.dimension)


def test_check_batch(benchmark):
    embedder = MockEmbedder()
    vectors = list(embedder.embed(texts()))
    batch = benchmark(_check_batch, vectors, N_TEXTS, embedder.dimension)
    assert batch.shape == (N_TEXTS, embedder.dimension)
