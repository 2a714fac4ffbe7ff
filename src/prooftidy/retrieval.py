"""Objective-conditioned strategy retrieval over a flat cosine index.

One bank serves three retrieval rules: plain similarity top-k for the
length objective, rerank-by-compile-metadata for the compile-time objective,
and compatibility filtering for a target toolchain. Each rule lives in one
place, ``retrieve``. Rules compose: filtering first (soundness), reranking
second (benefit within the sound set). The index is exact — a flat scan is
plenty at bank scale — and scans in two stages:

1. A float32 scan picks candidates. The index keeps its unit keys twice:
   as a float64 (n × d) matrix and as a C-contiguous float32 (d × n)
   copy, which costs n·d·4 more bytes (1.28 MB at 10⁴ × 32) and is half
   the bytes a query reads. ``approx = q̂₃₂ @ keys₃₂``; t is the k-th
   largest ``approx`` (−∞ when k ≥ n), and the candidates are the rows
   with ``approx ≥ t − margin``, where ``margin = 4·(d + 2)·2⁻²⁴``. The
   cut is computed in float64 and rounded to float32 for the comparison.
2. A float64 rescore ranks them. Each candidate's similarity is the dot
   of its float64 row with q̂ (``np.vecdot``), a value that depends on
   the row and the query only, so a strategy scores the same whatever k,
   n or its position; ``np.lexsort`` on (−similarity, id rank) orders
   the candidates and the first k are returned. The float32 stage never
   decides an order.

Why the candidates hold every row of the top k, and every row tied with
its k-th. Let u = 2⁻²⁴ and δ = (d + 2)·u. For finite unit vectors the
float32 dot differs from the exact dot by at most 2u from rounding both
vectors to float32 plus d·u from the float32 sum, that is δ, up to
second-order terms. There are k rows with ``approx ≥ t``, so the k-th
largest similarity s_k is at least t − δ; a row with similarity ≥ s_k
then has ``approx ≥ s_k − δ ≥ t − 2δ``. The margin is twice 2δ: the
other 2δ (at least 4u) covers the second-order terms, the float64
rounding of the rescore (about d·2⁻⁵³), the rounding of the cut to
float32 (at most u) and float32 underflow (below 2⁻¹⁴⁹ a term) for any
d below 2²⁰. The proof needs finite unit rows and queries: the index
rejects a non-finite vector with ``DegenerateVector``, and a vector whose
squared norm would over- or underflow is first scaled by a power of two,
which is exact, so every other vector keeps its bits.

``retrieve`` filters and reorders the returned rows, with their
similarities, by numpy operations on per-row columns of the bank: a
boolean mask per registered version and the negated compile reduction.
The columns are built on first use and memoised on the index for its
most recent bank, matched by identity, so a bank must not be mutated
while an index serves it. Only the k returned entries become Python
objects.

``StrategyIndex.build`` over a bank that ``load_bank`` read keeps the raw
vectors in the bank's directory, one uncompressed ``.npz`` file per
embedder: ``index-vectors-<id>.npz``, where ``<id>`` is a short hash of
the embedder's ``model`` and ``dimension``. The file holds the SHA-256
digest of each ``when_to_apply`` text in index order, the float64
vectors, the model and the dimension. A build reuses the stored vector of
every text whose digest it finds there and embeds the rest in one call,
so a warm build embeds nothing and its matrix is bit-identical to a cold
one. The file is outside input: it is loaded without pickles, and one
that cannot be read, or whose model, dimension, dtype, shape, digest
count, finiteness or non-zero rows do not check out, is ignored as if
absent. When the stored texts were not exactly the bank's, in order, the
build rewrites the file through ``bank.replacing``, so concurrent builds
and readers see a whole file or none. A directory that cannot be written
(read-only, full) costs one logged warning per build; the index is
returned all the same.

Also hosts the retrieval-model training loss as a pure, verifiable
function; actual model training is out of scope.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence
from zipfile import BadZipFile

import numpy as np

from .bank import Bank, content_id, replacing
from .embeddings import EmbeddingProvider
from .errors import (
    DegenerateVector,
    EmptyIndex,
    IndexBankMismatch,
    InvalidTemperature,
    UnknownVersion,
)

log = logging.getLogger(__name__)


class ObjectiveMode(str, Enum):
    LENGTH = "length"
    COMPILE_TIME = "compile_time"
    VERSION = "version"


@dataclass(frozen=True)
class ObjectiveSpec:
    """What the user is optimizing for, fixed at inference time.

    ``target_version`` is required for the version mode; setting it together
    with the compile-time mode composes both rules (filter, then rerank).
    The length mode ignores it: a length session on a target toolchain
    retrieves unfiltered and still compiles every check on that target,
    the unfiltered baseline against which version filtering is measured.
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


class RankedStrategy(NamedTuple):
    """A retrieved strategy with its score and 1-based rank."""

    strategy_id: str
    similarity: float
    rank: int


#: Norms at which a vector is normalised as it is. A norm outside them is
#: that of a non-finite vector, or one whose squared norm may have over- or
#: underflowed: such a vector is checked and scaled by a power of two first.
_SAFE_NORMS = (2.0 ** -500, 2.0 ** 500)


def _prescaled(vectors: np.ndarray, what: str) -> np.ndarray:
    """``vectors`` (along the last axis) each times the power of two that
    brings its largest magnitude into [0.5, 1): exact, but for components
    that it takes below the normal range.

    Raises:
        DegenerateVector: a component is not finite.
    """
    if not np.isfinite(vectors).all():
        raise DegenerateVector(f"{what} has a non-finite component")
    _, exponent = np.frexp(np.abs(vectors).max(axis=-1, keepdims=True,
                                               initial=0.0))
    return np.ldexp(vectors, -exponent)


def _with_norm(v: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """The 1-D ``v``, prescaled if its norm is outside ``_SAFE_NORMS``, and
    its norm.

    Raises:
        DegenerateVector: ``v`` has a non-finite component or is all zero.
    """
    # Exactly np.linalg.norm(v), which is sqrt(v.dot(v)); np.vdot runs the
    # same dot but warns of no overflow, which the prescaling handles.
    norm = math.sqrt(np.vdot(v, v))
    if not _SAFE_NORMS[0] <= norm <= _SAFE_NORMS[1]:
        v = _prescaled(v, what)
        norm = math.sqrt(np.vdot(v, v))
        if norm == 0.0:
            raise DegenerateVector(f"{what} is an all-zero vector")
    return v, norm


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; rejects zero or non-finite vectors and mismatched
    dimensions."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    u, nu = _with_norm(u, "cosine operand")
    v, nv = _with_norm(v, "cosine operand")
    return float(np.dot(u, v) / (nu * nv))


class _BankColumns:
    """One bank's per-row columns over an index's rows.

    Construction checks that the bank holds every id of the index; each
    column is built on its first use.
    """

    def __init__(self, ids: list[str], bank: Bank):
        missing = [i for i in ids if i not in bank.strategies]
        if missing:
            raise IndexBankMismatch(
                f"{len(missing)} indexed strategy ids are not in the bank, "
                f"first {missing[0]!r}")
        self.bank = bank
        self._ids = ids

    @cached_property
    def compile_rank(self) -> np.ndarray:
        """The sort key of the compile-time rerank: ``-median``, and +inf for
        a strategy without one. numpy compares -0.0 and 0.0 as equal, so
        they tie, as in a tuple sort key."""
        medians = (self.bank.strategies[i].median_compile_reduction
                   for i in self._ids)
        return np.array([math.inf if m is None else -m for m in medians],
                        dtype=np.float64)

    @cached_property
    def compatible(self) -> dict[str, np.ndarray]:
        """Per registered version, which rows are compatible with it."""
        sets = [self.bank.strategies[i].compatibility_set for i in self._ids]
        return {version: np.array([version in s for s in sets], dtype=bool)
                for version in self.bank.registry.versions}


class StrategyIndex:
    """Immutable flat index over one embedding per strategy.

    Keys are embeddings of each strategy's when-to-apply clause, mirroring
    how queries (proof segments) are paired with strategies. Safe for
    concurrent queries once built.
    """

    def __init__(self, ids: Sequence[str],
                 vectors: Sequence[np.ndarray] | np.ndarray,
                 embedder: EmbeddingProvider | None = None):
        """``vectors`` is one vector per id: a sequence of 1-D arrays, which
        the index stacks, or a 2-D array. A float64 array is taken over, not
        copied: the index divides it by its row norms in place. The first
        stage of a query reads a float32 copy of its transpose.

        Raises:
            DegenerateVector: a vector is all zero or has a non-finite
                component.
        """
        if len(ids) != len(vectors):
            raise ValueError("ids and vectors must have equal length")
        self._ids = list(ids)
        self.embedder = embedder  # query-side provider, set by build()
        if len(vectors):
            matrix = np.asarray(vectors, dtype=np.float64)
            if matrix.ndim != 2:
                raise ValueError("vectors must be one 1-D vector per id")
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            extreme = ~((norms >= _SAFE_NORMS[0]) & (norms <= _SAFE_NORMS[1]))[:, 0]
            if extreme.any():
                rows = _prescaled(matrix[extreme], "index entry")
                matrix[extreme] = rows
                norms[extreme] = np.linalg.norm(rows, axis=1, keepdims=True)
                if np.any(norms == 0.0):
                    raise DegenerateVector("index entry with all-zero embedding")
            matrix /= norms  # in place: never a second float64 copy
            self._matrix = matrix
        else:
            self._matrix = np.zeros((0, 0))
        self._keys32 = np.ascontiguousarray(self._matrix.T, dtype=np.float32)
        self._margin = 4 * (self._matrix.shape[1] + 2) * 2.0 ** -24
        # Position of each id in ascending id order: the tie-break key.
        # An object array sorts with Python's own string comparison.
        order = np.argsort(np.array(self._ids, dtype=object), kind="stable")
        self._id_rank = np.empty(len(self._ids), dtype=np.intp)
        self._id_rank[order] = np.arange(len(self._ids))
        # One slot: concurrent queries may each build and store it; a
        # reader keeps whichever slot it read.
        self._columns: _BankColumns | None = None

    def __len__(self) -> int:
        return len(self._ids)

    @classmethod
    def build(cls, bank: Bank, embedder: EmbeddingProvider) -> "StrategyIndex":
        """Index each strategy's ``when_to_apply`` text, in bank order.

        A bank built in memory is embedded whole. A loaded bank's vectors
        come from, and go back to, its vectors file (module docstring).
        """
        strategies = list(bank.strategies.values())
        ids = [s.id for s in strategies]
        texts = [s.when_to_apply for s in strategies]
        if bank.path is None:
            return cls(ids, embedder.embed(texts), embedder=embedder)
        key = content_id(embedder.model, str(embedder.dimension))
        path = Path(bank.path) / f"index-vectors-{key}.npz"
        digests = _digests(texts)
        stored = _read_vectors(path, embedder)
        if stored is not None and np.array_equal(stored[0], digests):
            return cls(ids, stored[1], embedder=embedder)
        matrix = _vectors_for(texts, digests, stored, embedder)
        _write_vectors(path, embedder, digests, matrix)
        return cls(ids, matrix, embedder=embedder)

    def _columns_for(self, bank: Bank) -> _BankColumns:
        """``bank``'s per-row columns, memoised for the most recent bank.

        Raises:
            IndexBankMismatch: the bank lacks an indexed id.
        """
        columns = self._columns
        if columns is None or columns.bank is not bank:
            columns = self._columns = _BankColumns(self._ids, bank)
        return columns

    def top_rows(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows of the min(k, n) most similar strategies, descending, ties by
        id ascending; and the similarities of those rows.

        Two stages (module docstring): a float32 scan of all n keys keeps
        the rows within ``margin = 4·(d + 2)·2⁻²⁴`` of the k-th largest
        approximate similarity, a set proven to hold the exact top k and
        all its ties; each kept row is rescored in float64, and only that
        score ranks. A row's similarity depends on the row and the query
        alone. The float32 keys cost n·d·4 bytes beside the float64 ones.

        Raises:
            EmptyIndex: the index has no rows.
            DegenerateVector: the query is all zero or has a non-finite
                component.
        """
        n = len(self._ids)
        if n == 0:
            raise EmptyIndex("cannot search an empty index")
        if k <= 0:
            raise ValueError("k must be positive")
        q, norm = _with_norm(np.asarray(query, dtype=np.float64), "query")
        q = q / norm
        approx = np.dot(q.astype(np.float32), self._keys32)
        t = float(np.partition(approx, n - k)[n - k]) if k < n else -math.inf
        # The cut is a float64 Python float; against a float32 array numpy
        # rounds it to float32, which the margin allows for.
        rows = (approx >= t - self._margin).nonzero()[0]
        sims = np.vecdot(self._matrix.take(rows, axis=0), q)
        order = np.lexsort((self._id_rank[rows], -sims))[:k]
        return rows[order], sims[order]

    def _ranked(self, rows: np.ndarray, sims: np.ndarray) -> list[RankedStrategy]:
        """``RankedStrategy`` entries for ``rows``, whose similarities are
        ``sims``, ranked in the given order."""
        ids = self._ids
        return [RankedStrategy(ids[i], similarity, rank)
                for rank, (i, similarity)
                in enumerate(zip(rows.tolist(), sims.tolist()), start=1)]

    def top_k(self, query: np.ndarray, k: int) -> list[RankedStrategy]:
        """The k most similar strategies, descending; ties by id ascending."""
        return self._ranked(*self.top_rows(query, k))


_DIGEST_SIZE = hashlib.sha256().digest_size


def _digests(texts: list[str]) -> np.ndarray:
    """The SHA-256 digest of each text, one row of bytes per text."""
    joined = bytearray()
    for t in texts:
        joined += hashlib.sha256(t.encode("utf-8", "surrogatepass")).digest()
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(texts), _DIGEST_SIZE)


def _read_vectors(path: Path, embedder: EmbeddingProvider
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """The (digests, vectors) stored at ``path`` for ``embedder``; None when
    the file is absent, unreadable or fails a check."""
    try:
        # NpzFile, not np.load: a bare .npy or a pickle is no vectors file.
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(
                fh, allow_pickle=False) as data:
            digests = data["digests"]
            if (data["model"].tolist() != embedder.model
                    or data["dimension"].tolist() != embedder.dimension
                    or digests.shape[1:] != (_DIGEST_SIZE,)):
                return None
            with data.zip.open("vectors.npy") as member:
                vectors = _read_matrix(member, (len(digests), embedder.dimension))
    # zipfile raises RuntimeError, or its subclass NotImplementedError, for
    # a header that flags encryption or an unknown method or version.
    except (BadZipFile, EOFError, OSError, KeyError, ValueError, RuntimeError):
        return None
    if not np.isfinite(vectors).all() or not vectors.any(axis=1).all():
        return None
    return digests, vectors


#: Below glibc's mmap threshold, so each chunk reuses the last one's memory.
_READ_CHUNK = 1 << 16


def _read_matrix(member, shape: tuple[int, int]) -> np.ndarray:
    """The C-order float64 array of ``shape`` that the ``.npy`` file
    ``member`` holds, read straight into place a chunk at a time: numpy's
    reader would hold all its bytes twice.

    Raises:
        ValueError: the header names another shape, order or dtype, or the
            data is short or runs on.
    """
    if np.lib.format.read_magic(member) != (1, 0):
        raise ValueError("unexpected .npy format version")
    if np.lib.format.read_array_header_1_0(member) != (shape, False,
                                                       np.dtype(np.float64)):
        raise ValueError("unexpected array header")
    matrix = np.empty(shape)
    out = matrix.reshape(-1).view(np.uint8)
    for start in range(0, out.size, _READ_CHUNK):
        chunk = out[start:start + _READ_CHUNK]
        if member.readinto(chunk) != chunk.size:
            raise ValueError("array data cut short")
    # The last chunk ended the member, which made zipfile check its CRC;
    # bytes beyond the array would have left the CRC unchecked.
    if member.read(1):
        raise ValueError("data after the array")
    return matrix


def _vectors_for(texts: list[str], digests: np.ndarray,
                 stored: tuple[np.ndarray, np.ndarray] | None,
                 embedder: EmbeddingProvider) -> np.ndarray:
    """Raw vectors for ``texts``: each stored row whose digest matches, and
    one ``embed`` call for the texts that have none."""
    rows: list[int | None] = [None] * len(texts)
    if stored is not None:
        row_of = {d.tobytes(): row for row, d in enumerate(stored[0])}
        rows = [row_of.get(d.tobytes()) for d in digests]
    missing = [i for i, row in enumerate(rows) if row is None]
    fresh = embedder.embed([texts[i] for i in missing])
    # Allocated after the embed call, which may hold a stacked copy of
    # its batch while it checks it.
    matrix = np.empty((len(texts), embedder.dimension))
    for i, vector in zip(missing, fresh, strict=True):
        matrix[i] = vector
    for i, row in enumerate(rows):
        if row is not None:
            matrix[i] = stored[1][row]
    return matrix


def _write_vectors(path: Path, embedder: EmbeddingProvider,
                   digests: np.ndarray, vectors: np.ndarray) -> None:
    """Replace the vectors file at ``path`` whole; log a failure and go on."""
    try:
        with replacing(path) as fh:
            np.savez(fh, digests=digests, vectors=vectors,
                     model=np.array(embedder.model),
                     dimension=np.array(embedder.dimension))
    except OSError as exc:
        log.warning("index vectors not saved to %s: %s", path, exc)


def retrieve(
    index: StrategyIndex,
    bank: Bank,
    query: np.ndarray,
    objective: ObjectiveSpec,
) -> list[RankedStrategy]:
    """Apply the retrieval rule selected by the objective.

    length: top_k(k), unfiltered even when ``target_version`` is set (the
    baseline for the version filter). Otherwise the pool is
    top_rows(pool_size); a target version keeps only the strategies whose
    compatibility set holds it, and the compile-time objective then
    reorders the pool by annotated compile reduction, best first,
    strategies without it last, ties in similarity order (the sort is
    stable). The first k are returned, ranked 1..k. The pool stays a row
    array beside its similarities, both filtered by a version mask and
    reordered by the compile-reduction column; only the returned entries
    become ``RankedStrategy``.

    Raises:
        IndexBankMismatch: the bank lacks an indexed id, under any
            objective.
        UnknownVersion: the target version is not registered, under the
            compile-time or version objective.
    """
    columns = index._columns_for(bank)
    if objective.mode == ObjectiveMode.LENGTH:
        return index.top_k(query, objective.k)
    rows, sims = index.top_rows(query, objective.pool_size)
    version = objective.target_version
    if version is not None:
        compatible = columns.compatible.get(version)
        if compatible is None:
            raise UnknownVersion(f"toolchain version {version!r} is not registered")
        keep = compatible[rows]
        rows, sims = rows[keep], sims[keep]
    if objective.mode == ObjectiveMode.COMPILE_TIME:
        order = np.argsort(columns.compile_rank[rows], kind="stable")
        rows, sims = rows[order], sims[order]
    return index._ranked(rows[:objective.k], sims[:objective.k])


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
