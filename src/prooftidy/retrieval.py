"""Objective-conditioned strategy retrieval over a flat cosine index.

One bank serves three retrieval rules: plain similarity top-k for the
length objective, rerank-by-compile-metadata for the compile-time objective,
and compatibility filtering for a target toolchain. Rules compose:
filtering first (soundness), reranking second (benefit within the sound
set). The index is exact — a flat scan is plenty at bank scale. A query
is one matrix-vector product; ``np.partition`` finds the k-th largest
similarity, every strategy scoring at least that much survives (so a tie
group straddling the cut stays whole), and one ``np.lexsort`` on
(-similarity, id rank) orders the survivors. The objective rules filter
and reorder those row numbers; only the k returned entries become Python
objects.

Also hosts the retrieval-model training loss as a pure, verifiable
function; actual model training is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .bank import Bank
from .embeddings import EmbeddingProvider
from .errors import DegenerateVector, EmptyIndex, InvalidTemperature, UnknownVersion


class ObjectiveMode(str, Enum):
    LENGTH = "length"
    COMPILE_TIME = "compile_time"
    VERSION = "version"


@dataclass(frozen=True)
class ObjectiveSpec:
    """What the user is optimizing for, fixed at inference time.

    ``target_version`` is required for the version mode; setting it together
    with the compile-time mode composes both rules (filter, then rerank).
    """

    mode: ObjectiveMode = ObjectiveMode.LENGTH
    target_version: str | None = None
    pool_size: int = 50
    k: int = 8

    def __post_init__(self):
        if self.mode == ObjectiveMode.VERSION and not self.target_version:
            raise ValueError("version objective requires target_version")
        if self.k <= 0 or self.pool_size <= 0:
            raise ValueError("k and pool_size must be positive")
        if self.k > self.pool_size:
            raise ValueError("k must not exceed pool_size")


@dataclass(frozen=True)
class RankedStrategy:
    """A retrieved strategy with its score and 1-based rank."""

    strategy_id: str
    similarity: float
    rank: int


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; rejects zero vectors and mismatched dimensions."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVector("cosine similarity of an all-zero vector")
    return float(np.dot(u, v) / (nu * nv))


class StrategyIndex:
    """Immutable flat index over one embedding per strategy.

    Keys are embeddings of each strategy's when-to-apply clause, mirroring
    how queries (proof segments) are paired with strategies. Safe for
    concurrent queries once built.
    """

    def __init__(self, ids: Sequence[str], vectors: Sequence[np.ndarray],
                 embedder: EmbeddingProvider | None = None):
        if len(ids) != len(vectors):
            raise ValueError("ids and vectors must have equal length")
        self._ids = list(ids)
        self.embedder = embedder  # query-side provider, set by build()
        if vectors:
            matrix = np.vstack([np.asarray(v, dtype=np.float64) for v in vectors])
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            if np.any(norms == 0.0):
                raise DegenerateVector("index entry with all-zero embedding")
            self._matrix = matrix / norms
        else:
            self._matrix = np.zeros((0, 0))
        # Position of each id in ascending id order: the tie-break key.
        # An object array sorts with Python's own string comparison.
        order = np.argsort(np.array(self._ids, dtype=object), kind="stable")
        self._id_rank = np.empty(len(self._ids), dtype=np.intp)
        self._id_rank[order] = np.arange(len(self._ids))

    def __len__(self) -> int:
        return len(self._ids)

    @classmethod
    def build(cls, bank: Bank, embedder: EmbeddingProvider) -> "StrategyIndex":
        strategies = list(bank.strategies.values())
        vectors = embedder.embed([s.when_to_apply for s in strategies])
        return cls([s.id for s in strategies], vectors, embedder=embedder)

    def top_rows(self, query: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
        """Rows of the k most similar strategies, descending, ties by id
        ascending; and the similarity of every row."""
        if len(self._ids) == 0:
            raise EmptyIndex("cannot search an empty index")
        if k <= 0:
            raise ValueError("k must be positive")
        q = np.asarray(query, dtype=np.float64)
        norm = np.linalg.norm(q)
        if norm == 0.0:
            raise DegenerateVector("query is an all-zero vector")
        sims = self._matrix @ (q / norm)
        n = len(sims)
        if k < n:
            kth = np.partition(sims, n - k)[n - k]
            candidates = np.flatnonzero(sims >= kth)
        else:
            candidates = np.arange(n)
        order = np.lexsort((self._id_rank[candidates], -sims[candidates]))
        return candidates[order[:k]].tolist(), sims

    def _ranked(self, rows: Sequence[int], sims: np.ndarray) -> list[RankedStrategy]:
        """``RankedStrategy`` entries for ``rows``, ranked in the given order."""
        return [RankedStrategy(strategy_id=self._ids[i],
                               similarity=float(sims[i]),
                               rank=rank)
                for rank, i in enumerate(rows, start=1)]

    def top_k(self, query: np.ndarray, k: int) -> list[RankedStrategy]:
        """The k most similar strategies, descending; ties by id ascending."""
        return self._ranked(*self.top_rows(query, k))


def _compatible_with(version: str, bank: Bank):
    """The version rule: a predicate on strategy ids."""
    if version not in bank.registry:
        raise UnknownVersion(f"toolchain version {version!r} is not registered")
    return lambda strategy_id: (
        version in bank.strategies[strategy_id].compatibility_set)


def _compile_reduction_key(bank: Bank):
    """The compile-time rule: a sort key on strategy ids, best first."""
    def key(strategy_id: str):
        strategy = bank.strategies.get(strategy_id)
        metadata = strategy.median_compile_reduction if strategy else None
        return (1, 0.0) if metadata is None else (0, -metadata)

    return key


def _renumbered(pool: Sequence[RankedStrategy]) -> list[RankedStrategy]:
    return [RankedStrategy(r.strategy_id, r.similarity, rank)
            for rank, r in enumerate(pool, start=1)]


def rerank_by_compile_reduction(
    pool: Sequence[RankedStrategy], bank: Bank
) -> list[RankedStrategy]:
    """Reorder by annotated compile reduction, best first.

    Strategies without compile metadata go last; ties keep the incoming
    (similarity) order — the sort is stable.
    """
    key = _compile_reduction_key(bank)
    return _renumbered(sorted(pool, key=lambda r: key(r.strategy_id)))


def filter_by_version(
    pool: Sequence[RankedStrategy], version: str, bank: Bank
) -> list[RankedStrategy]:
    """Keep only strategies whose compatibility set contains ``version``."""
    keep = _compatible_with(version, bank)
    return _renumbered([r for r in pool if keep(r.strategy_id)])


def retrieve(
    index: StrategyIndex,
    bank: Bank,
    query: np.ndarray,
    objective: ObjectiveSpec,
) -> list[RankedStrategy]:
    """Apply the retrieval rule selected by the objective.

    length: top_k(k). compile_time: top_k(pool) → rerank → truncate.
    version: top_k(pool) → filter → truncate. compile_time with a target
    version: top_k(pool) → filter → rerank → truncate. The pool stays as
    row numbers; only the returned entries become ``RankedStrategy``.
    """
    if objective.mode == ObjectiveMode.LENGTH:
        return index.top_k(query, objective.k)
    rows, sims = index.top_rows(query, objective.pool_size)
    ids = index._ids
    if objective.target_version is not None:
        keep = _compatible_with(objective.target_version, bank)
        rows = [i for i in rows if keep(ids[i])]
    if objective.mode == ObjectiveMode.COMPILE_TIME:
        key = _compile_reduction_key(bank)
        rows = sorted(rows, key=lambda i: key(ids[i]))
    return index._ranked(rows[:objective.k], sims)


@dataclass(frozen=True)
class ContrastiveBatch:
    """One training batch: queries paired row-wise with their positives."""

    query_embeddings: np.ndarray      # (B, d)
    positive_embeddings: np.ndarray   # (B, d)
    temperature: float
    margin: float

    def __post_init__(self):
        q = np.asarray(self.query_embeddings, dtype=np.float64)
        c = np.asarray(self.positive_embeddings, dtype=np.float64)
        if q.ndim != 2 or c.shape != q.shape:
            raise ValueError("queries and positives must be equal-shape 2D arrays")
        if q.shape[0] < 1:
            raise ValueError("batch must contain at least one pair")
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        object.__setattr__(self, "query_embeddings", q)
        object.__setattr__(self, "positive_embeddings", c)


def contrastive_loss(batch: ContrastiveBatch) -> float:
    """In-batch-negative contrastive loss with false-negative masking.

    Every other row's positive acts as a negative for a query, except
    candidates scoring more than ``margin`` above the query's own positive,
    which are masked out of the denominator. The positive itself is never
    masked, so the loss is non-negative and exactly 0.0 for a batch of one.
    """
    if batch.temperature <= 0:
        raise InvalidTemperature("temperature must be positive")
    q = batch.query_embeddings
    c = batch.positive_embeddings
    q_norms = np.linalg.norm(q, axis=1, keepdims=True)
    c_norms = np.linalg.norm(c, axis=1, keepdims=True)
    if np.any(q_norms == 0.0) or np.any(c_norms == 0.0):
        raise DegenerateVector("batch contains an all-zero embedding")
    qn = q / q_norms
    cn = c / c_norms
    sims = qn @ cn.T                        # sims[i, j] = Sim(q_i, c_j+)
    pos = np.diag(sims)
    keep = sims <= (pos[:, None] + batch.margin)
    logits = sims / batch.temperature
    # Shift per row for numerical stability; ratios are unchanged.
    shift = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - shift) * keep
    log_terms = (np.diag(logits) - shift[:, 0]) - np.log(exp.sum(axis=1))
    return float(-log_terms.mean())
