"""Embedding provider port: the mock's exact vectors and the batch contract."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from prooftidy.embeddings import MockEmbedder, _check_batch
from prooftidy.errors import ProviderContractViolation

# Empty, ASCII, Lean's non-ASCII symbols, CJK, an astral emoji, control bytes.
TEXTS = ["", "rfl", "  simp only [Nat.add_comm] at h₁", "obtain ⟨w, hw⟩ := h",
         "∀ x ∈ s, f x ≤ g x", "日本語", "emoji 🙂", "a\nb\tc\x00d"]


#: 2001 texts: numbered lines, the empty text and a lone surrogate.
MANY_TEXTS = [f"text {i} ∀" for i in range(1999)] + ["", "a \ud800 b"]


@pytest.mark.parametrize("texts, dimension, seed, digest", [
    (TEXTS, 32, 0,
     "56e09610a54dff428618e8bcbba51b2d9f2205bcdae44da3f59fb683b3cab284"),
    (TEXTS, 7, 3,
     "027b4de442a97b929f7f3a68fed45113382ee2c17b2e1e2975260016ced66777"),
    (MANY_TEXTS, 32, 0,
     "fd1d267bc6f41a2a518e9241cdcb53a18d421331f03be60872b98305b06fa005"),
], ids=["d32", "d7", "many"])
def test_mock_embedder_vectors_are_pinned_bit_for_bit(texts, dimension, seed,
                                                      digest):
    # Indexes and benchmark results are built from these vectors: any
    # change to seeding, sampling or normalisation shows here. The digests
    # were taken when ``embed`` returned one 1-D array per text.
    vectors = MockEmbedder(dimension=dimension, seed=seed).embed(texts)
    assert vectors.dtype == np.dtype("<f8")
    assert hashlib.sha256(vectors.tobytes()).hexdigest() == digest


def _unit(dimension: int) -> np.ndarray:
    return np.full(dimension, 1.0 / np.sqrt(dimension))


@pytest.mark.parametrize("vectors, n_texts", [
    ([_unit(4)], 2),                                  # too few
    ([_unit(4)] * 3, 2),                              # too many
    ([_unit(4), _unit(5)], 2),                        # ragged
    ([_unit(4), np.ones((1, 4))], 2),                 # wrong rank
    ([_unit(4), np.array([0.5, np.nan, 0.5, 0.5])], 2),
    ([np.array([np.inf, 0.0, 0.0, 0.0]), _unit(4)], 2),
    ([_unit(4), np.array([0.0, -np.inf, 0.0, 0.0])], 2),
    ([_unit(4), np.array([0.0, -0.0, 0.0, 0.0])], 2),
], ids=["too_few", "too_many", "ragged", "wrong_rank", "nan", "inf", "-inf",
        "all_zero"])
def test_check_batch_rejects_a_broken_batch(vectors, n_texts):
    with pytest.raises(ProviderContractViolation):
        _check_batch(vectors, n_texts, 4)


def test_check_batch_returns_the_batch_as_one_array():
    vectors = [_unit(4), -_unit(4)]
    batch = _check_batch(vectors, 2, 4)
    assert (batch.dtype, batch.shape) == (np.float64, (2, 4))
    assert np.array_equal(batch, np.stack(vectors))
