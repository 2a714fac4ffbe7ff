"""Embedding provider port: a deterministic in-process mock and an HTTP client.

The wire contract for the HTTP provider: POST ``{"model": ..., "input":
[texts]}`` to the endpoint; response ``{"data": [{"embedding": [...]}, ...]}``
in input order. Batches may be issued concurrently up to ``max_in_flight``;
results are reassembled in input order. Each request goes through
``llm.post_json``, the one HTTP request path of both HTTP ports. A failed
batch is retried, except for a contract violation or a status in
``REJECTED_STATUSES``, which raise at once.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import (
    ProviderContractViolation,
    ProviderRejected,
    RetryableProviderError,
)
from .llm import post_json


class EmbeddingProvider(Protocol):
    """Anything that maps a list of texts to fixed-dimension vectors.

    ``embed`` returns one float64 array of shape (len(texts), dimension),
    row i the vector of text i, (0, dimension) for no texts. The caller
    owns it: ``StrategyIndex`` takes it over and normalises it in place,
    so a provider returns a new array on every call.

    ``model`` names the mapping: two providers with equal ``model`` and
    ``dimension`` must give equal vectors for equal texts, because
    ``StrategyIndex.build`` reuses stored vectors under that key.
    """

    model: str
    dimension: int

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


def _check_batch(vectors: list[np.ndarray], n_texts: int,
                 dimension: int) -> np.ndarray:
    """The provider's ``vectors`` for ``n_texts`` texts (at least one) as
    one (n_texts × dimension) array.

    Raises:
        ProviderContractViolation: a count or dimension is wrong, or a
            vector is non-finite or all zero.
    """
    if len(vectors) != n_texts:
        raise ProviderContractViolation(
            f"provider returned {len(vectors)} vectors for {n_texts} texts"
        )
    for v in vectors:
        if v.shape != (dimension,):
            raise ProviderContractViolation(
                f"provider returned dimension {v.shape} != ({dimension},)"
            )
    stacked = np.stack(vectors)
    if not np.isfinite(stacked).all():
        raise ProviderContractViolation("provider returned non-finite values")
    if not stacked.any(axis=1).all():
        raise ProviderContractViolation("provider returned an all-zero vector")
    return stacked


class MockEmbedder:
    """Seeded hash-to-vector embedder: deterministic, offline, unit-norm.

    Identical texts always map to identical vectors, so a query equal to an
    indexed text scores cosine 1.0 against it. Instruction prefixes are not
    treated specially. The seed fixes the mapping, so it names the model.
    """

    def __init__(self, dimension: int = 32, seed: int = 0):
        self.dimension = dimension
        self.seed = seed

    @property
    def model(self) -> str:
        return f"mock-seed{self.seed}"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        # One finite unit vector per text by construction, so unlike a
        # provider's reply the batch needs no _check_batch.
        matrix = np.empty((len(texts), self.dimension))
        norms = []
        for row, text in zip(matrix, texts):
            key = f"{self.seed}\x00{text}".encode("utf-8", "surrogatepass")
            digest = hashlib.sha256(key).digest()
            rng = np.random.Generator(
                np.random.PCG64(int.from_bytes(digest[:8], "big")))
            rng.standard_normal(out=row)
            norm = math.sqrt(row @ row)  # exactly np.linalg.norm for 1-D float64
            if norm == 0.0:  # astronomically unlikely; keep the contract total
                row[0] = 1.0
                norm = 1.0
            norms.append(norm)
        # One division of the whole array: per element the same IEEE
        # division as each row's own ``row / norm``, and faster.
        matrix /= np.array(norms).reshape(-1, 1)
        return matrix


@dataclass
class HttpEmbedder:
    """HTTP embedding client with per-batch retries and ordered reassembly."""

    endpoint: str
    model: str
    dimension: int
    auth_token_env: str | None = None
    batch_size: int = 64
    max_in_flight: int = 4
    max_attempts: int = 3
    timeout: float = 60.0
    retry_backoff: float = 1.0

    def _post_batch(self, texts: Sequence[str]) -> np.ndarray:
        last_error: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                payload = post_json(self.endpoint,
                                    {"model": self.model, "input": list(texts)},
                                    self.auth_token_env, self.timeout,
                                    "embedding")
                vectors = [np.asarray(item["embedding"], dtype=np.float64)
                           for item in payload["data"]]
                return _check_batch(vectors, len(texts), self.dimension)
            except (ProviderContractViolation, ProviderRejected):
                raise
            except Exception as exc:  # transport / HTTP / payload shape
                last_error = exc
                if attempt < self.max_attempts:
                    time.sleep(self.retry_backoff * attempt)
        raise RetryableProviderError(
            f"embedding request failed: {last_error}",
            attempts=self.max_attempts,
        )

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        size = self.batch_size
        matrix = np.empty((len(texts), self.dimension))

        def fill(start: int) -> None:
            # Each batch writes its rows as it arrives, so the batches are
            # never held all at once beside the result.
            matrix[start:start + size] = self._post_batch(
                texts[start:start + size])

        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            # list() reads every result, so a batch's error is raised here.
            list(pool.map(fill, range(0, len(texts), size)))
        return matrix
