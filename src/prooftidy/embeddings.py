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

    ``model`` names the mapping: two providers with equal ``model`` and
    ``dimension`` must give equal vectors for equal texts, because
    ``StrategyIndex.build`` reuses stored vectors under that key.
    """

    model: str
    dimension: int

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]: ...


def _check_batch(vectors: list[np.ndarray], n_texts: int, dimension: int) -> None:
    if len(vectors) != n_texts:
        raise ProviderContractViolation(
            f"provider returned {len(vectors)} vectors for {n_texts} texts"
        )
    for v in vectors:
        if v.shape != (dimension,):
            raise ProviderContractViolation(
                f"provider returned dimension {v.shape} != ({dimension},)"
            )
    if vectors and not np.isfinite(np.stack(vectors)).all():
        raise ProviderContractViolation("provider returned non-finite values")


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

    def _vector_for(self, text: str) -> np.ndarray:
        key = f"{self.seed}\x00{text}".encode("utf-8", "surrogatepass")
        digest = hashlib.sha256(key).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))
        v = rng.standard_normal(self.dimension)
        norm = math.sqrt(v @ v)  # exactly np.linalg.norm for 1-D float64
        if norm == 0.0:  # astronomically unlikely; keep the contract total
            v[0] = 1.0
            norm = 1.0
        return v / norm

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        # One finite unit vector per text by construction, so unlike a
        # provider's reply the batch needs no _check_batch.
        return [self._vector_for(t) for t in texts]


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

    def _post_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        last_error: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                payload = post_json(self.endpoint,
                                    {"model": self.model, "input": list(texts)},
                                    self.auth_token_env, self.timeout,
                                    "embedding")
                vectors = [np.asarray(item["embedding"], dtype=np.float64)
                           for item in payload["data"]]
                _check_batch(vectors, len(texts), self.dimension)
                return vectors
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

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            return []
        size = self.batch_size
        batches = [texts[i:i + size] for i in range(0, len(texts), size)]
        if len(batches) == 1:
            return self._post_batch(batches[0])
        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            results = list(pool.map(self._post_batch, batches))
        return [v for batch in results for v in batch]
