"""Retrieval rules, flat index, and contrastive loss tests."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import logging
import math
import os
import struct
import sys
import zipfile
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prooftidy import retrieval
from prooftidy.bank import Bank, load_bank, save_bank
from prooftidy.embeddings import MockEmbedder
from prooftidy.errors import (
    DegenerateVector,
    IndexBankMismatch,
    ProviderContractViolation,
    UnknownVersion,
)
from prooftidy.retrieval import (
    _NORM_BLOCK,
    ObjectiveMode,
    ObjectiveSpec,
    RankedStrategy,
    StrategyIndex,
    _unit_rows,
    contrastive_loss,
    cosine,
    retrieve,
)
from test_bank import REGISTRY, make_strategy

VERSIONS = list(REGISTRY.versions)


def brute_force_loss(queries, positives, temperature, margin):
    """Double-loop evaluation of the training objective, written naively."""
    def sim(u, v):
        return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    B = len(queries)
    total = 0.0
    for i in range(B):
        pos_sim = sim(queries[i], positives[i])
        numerator = math.exp(pos_sim / temperature)
        denominator = 0.0
        for j in range(B):
            candidate_sim = sim(queries[i], positives[j])
            masked = candidate_sim > pos_sim + margin
            if not masked:
                denominator += math.exp(candidate_sim / temperature)
        total += math.log(numerator / denominator)
    return -total / B


def make_bank_with(strategies) -> Bank:
    return Bank(strategies={s.id: s for s in strategies}, registry=REGISTRY)


def make_index(vectors, ids=None) -> StrategyIndex:
    ids = ids or [f"s{i:04d}" for i in range(len(vectors))]
    return StrategyIndex(ids, [np.asarray(v, dtype=float) for v in vectors])


def ranked(index: StrategyIndex, query, k: int) -> list[RankedStrategy]:
    """``index.top_k``'s selection as ``RankedStrategy`` entries, ranked
    1..k in its order."""
    rows, sims = index.top_k(query, k)
    return [RankedStrategy(index._ids[row], similarity, rank)
            for rank, (row, similarity)
            in enumerate(zip(rows.tolist(), sims.tolist()), start=1)]


# --- cosine -------------------------------------------------------------------

def test_cosine_identical_vectors():
    v = np.array([1.0, 2.0, 3.0])
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_opposite():
    v = np.array([0.5, -2.0])
    assert cosine(v, -v) == pytest.approx(-1.0)


def test_cosine_rejects_zero_vector():
    with pytest.raises(DegenerateVector):
        cosine(np.zeros(3), np.ones(3))


def test_cosine_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine(np.ones(3), np.ones(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cosine_rejects_a_non_finite_vector(bad):
    with pytest.raises(DegenerateVector):
        cosine(np.array([bad, 1.0]), np.ones(2))
    with pytest.raises(DegenerateVector):
        cosine(np.ones(2), np.array([1.0, bad]))


def test_cosine_of_vectors_whose_squared_norms_over_or_underflow():
    assert cosine(np.array([0.0, 1e200]), np.array([0.0, 1.0])) == 1.0
    assert cosine(np.array([1e-200, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert cosine(np.array([1e-200, 0.0]), np.array([1e300, 1e300])) == (
        pytest.approx(math.sqrt(0.5)))


# --- the index matrix ------------------------------------------------------------

class ScaledEmbedder:
    """MockEmbedder vectors times 1.5, 2.5, ...: the index must normalise."""

    dimension = 16

    def embed(self, texts):
        vectors = MockEmbedder(dimension=16, seed=3).embed(texts)
        return vectors * (np.arange(len(texts)) + 1.5)[:, None]


def test_index_takes_over_a_2d_array_without_a_copy():
    vectors = np.eye(3) * 2.0
    index = StrategyIndex(["a", "b", "c"], vectors)
    assert np.shares_memory(index._matrix, vectors)
    assert np.array_equal(index._matrix, np.eye(3))
    assert ranked(index, np.array([0.0, 1.0, 0.0]), 1)[0].strategy_id == "b"


@pytest.mark.parametrize("ids, vectors, message", [
    (["a", "b"], np.eye(3), "equal length"),
    (["a"], np.ones(3), "2-D"),
    (["a"], np.ones((1, 1, 3)), "2-D"),
], ids=["unequal", "one_dimensional", "three_dimensional"])
def test_index_refuses_vectors_that_are_not_one_row_per_id(ids, vectors,
                                                           message):
    with pytest.raises(ValueError, match=message):
        StrategyIndex(ids, vectors)


@given(n=st.integers(0, 3 * _NORM_BLOCK), dimension=st.sampled_from([1, 7, 32]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=_NORM_BLOCK - 1, dimension=32, seed=0)
@example(n=_NORM_BLOCK, dimension=32, seed=0)
@example(n=_NORM_BLOCK + 1, dimension=32, seed=0)
@settings(max_examples=30, deadline=None)
def test_unit_rows_in_blocks_match_one_norm_over_the_matrix_bit_for_bit(
        n, dimension, seed):
    rng = np.random.default_rng(seed)
    # Rows of magnitudes 2**-40 .. 2**40, all inside the safe norms.
    matrix = rng.standard_normal((n, dimension)) * np.exp2(
        rng.integers(-40, 41, size=(n, 1)))
    expected = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    _unit_rows(matrix, "row")
    assert matrix.tobytes() == expected.tobytes()


def test_index_rows_are_the_vectors_over_their_norms_bit_for_bit():
    bank = make_bank_with(make_strategy(i, when_to_apply=f"pattern {i}")
                          for i in range(5))
    index = StrategyIndex.build(bank, ScaledEmbedder())
    raw = ScaledEmbedder().embed([f"pattern {i}" for i in range(5)])
    assert np.array_equal(
        index._matrix, raw / np.linalg.norm(raw, axis=1, keepdims=True))
    assert hashlib.sha256(index._matrix.tobytes()).hexdigest() == (
        "7822e58e873fb9fa04bffff82f990c5766d366d196d6e7a6ce0fa96ac9c739cf")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_index_rejects_a_non_finite_row(bad):
    with pytest.raises(DegenerateVector):
        make_index([[1.0, 0.0], [bad, 1.0], [0.0, 1.0]])


def test_a_row_whose_squared_norm_overflows_is_normalised():
    index = make_index([[0.0, 1e200], [1.0, 1.0]])
    assert ranked(index, np.array([0.0, 1.0]), 1) == [
        RankedStrategy("s0000", 1.0, 1)]


@given(exponent=st.integers(-900, 900), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_scaling_by_a_power_of_two_keeps_every_bit(exponent, seed):
    # A power of two scales exactly, so a vector whose squared norm would
    # over- or underflow normalises to the bits of the same vector at an
    # ordinary scale, and an ordinary vector keeps its own.
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((4, 8))
    query = rng.standard_normal(8)
    plain = make_index(vectors)
    scaled = make_index(np.ldexp(vectors, exponent))
    assert np.array_equal(scaled._matrix, plain._matrix)
    assert ranked(scaled, np.ldexp(query, -exponent), 4) == ranked(plain, query, 4)
    assert (cosine(np.ldexp(query, exponent), np.ldexp(vectors[0], -exponent))
            == cosine(query, vectors[0]))


# --- top_k --------------------------------------------------------------------

def test_top_k_exact_match_ranks_first():
    vectors = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    index = make_index(vectors)
    result = ranked(index, np.array([0.0, 1.0, 0.0]), 1)
    assert result[0].strategy_id == "s0001"
    assert result[0].similarity == pytest.approx(1.0)
    assert result[0].rank == 1


def test_top_k_larger_than_index_returns_all():
    index = make_index([[1, 0], [0, 1]])
    result = ranked(index, np.array([1.0, 1.0]), 10)
    assert len(result) == 2
    assert [r.rank for r in result] == [1, 2]


def test_top_k_empty_index():
    index = StrategyIndex([], np.empty((0, 1)))
    rows, sims = index.top_k(np.array([1.0]), 1)
    assert (rows.dtype, rows.shape) == (np.intp, (0,))
    assert (sims.dtype, sims.shape) == (np.float64, (0,))
    with pytest.raises(ValueError):
        index.top_k(np.array([1.0]), 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_top_k_rejects_a_non_finite_query(bad):
    index = make_index([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateVector):
        index.top_k(np.array([bad, 1.0]), 1)


@pytest.mark.parametrize("tiny", [1e-200, 5e-324])
def test_a_query_whose_squared_norm_underflows_is_normalised(tiny):
    index = make_index([[1.0, 0.0], [1.0, 1.0]])
    assert ranked(index, np.array([tiny, 0.0]), 1) == [
        RankedStrategy("s0000", 1.0, 1)]


def test_top_k_ties_break_by_id_ascending():
    index = make_index([[1, 0], [1, 0], [1, 0]], ids=["zz", "aa", "mm"])
    result = ranked(index, np.array([2.0, 0.0]), 3)
    assert [r.strategy_id for r in result] == ["aa", "mm", "zz"]


def test_top_k_matches_exhaustive_sort():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(5, 500))
        dim = int(rng.integers(2, 16))
        vectors = rng.standard_normal((n, dim))
        ids = [f"s{i:05d}" for i in range(n)]
        index = make_index(list(vectors), ids=ids)
        query = rng.standard_normal(dim)
        k = int(rng.integers(1, n + 1))
        got = ranked(index, query, k)
        sims = [(cosine(query, vectors[i]), ids[i]) for i in range(n)]
        want = sorted(sims, key=lambda t: (-t[0], t[1]))[:k]
        assert [r.strategy_id for r in got] == [w[1] for w in want]
        for r, w in zip(got, want):
            assert r.similarity == pytest.approx(w[0], abs=1e-12)


# --- the compile-time rerank and the version filter, through retrieve ---------

def sized(k, pool_size):
    """Patch ``ObjectiveSpec``'s class constants ``k`` and ``pool_size``."""
    return mock.patch.multiple(ObjectiveSpec, k=k, pool_size=pool_size)


def retrieve_from(strategies, sims, objective):
    """``retrieve`` over ``strategies``, in the given order, whose cosines
    to the query are ``sims``, with k and the pool size both their count."""
    vectors = [[sim, math.sqrt(1.0 - sim * sim)] for sim in sims]
    index = make_index(vectors, ids=[s.id for s in strategies])
    with sized(len(sims), len(sims)):
        return retrieve(index, make_bank_with(strategies),
                        np.array([1.0, 0.0]), objective)


COMPILE_TIME = ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME)


def version(target):
    return ObjectiveSpec(mode=ObjectiveMode.VERSION, target_version=target)


def test_rerank_orders_by_metadata_descending():
    strategies = [
        make_strategy(0, median_compile_reduction=0.1),
        make_strategy(1, median_compile_reduction=0.5),
        make_strategy(2, median_compile_reduction=0.3),
    ]
    result = retrieve_from(strategies, [0.9, 0.8, 0.7], COMPILE_TIME)
    assert [r.strategy_id for r in result] == ["s0001", "s0002", "s0000"]
    assert [r.rank for r in result] == [1, 2, 3]


def test_rerank_places_absent_metadata_last():
    strategies = [
        make_strategy(0, median_compile_reduction=None),
        make_strategy(1, median_compile_reduction=0.05),
    ]
    result = retrieve_from(strategies, [0.9, 0.8], COMPILE_TIME)
    assert [r.strategy_id for r in result] == ["s0001", "s0000"]


def test_rerank_is_stable_on_ties():
    strategies = [make_strategy(i, median_compile_reduction=0.2)
                  for i in (2, 0, 1)]
    result = retrieve_from(strategies, [0.9, 0.8, 0.7], COMPILE_TIME)
    assert [r.strategy_id for r in result] == ["s0002", "s0000", "s0001"]


def test_rerank_preserves_multiset():
    strategies = [make_strategy(i, median_compile_reduction=0.1 * i)
                  for i in range(5)]
    result = retrieve_from(strategies, [0.5] * 5, COMPILE_TIME)
    assert [r.strategy_id for r in result] == [f"s{i:04d}" for i in range(4, -1, -1)]
    assert [r.similarity for r in result] == pytest.approx([0.5] * 5)


def test_rerank_keeps_similarity_order_in_a_wide_tie_group():
    # Twenty rows on two levels: numpy's default sort is unstable at this
    # size, and a median of -0.0 ties with 0.0.
    medians = [0.25 if i % 2 else (0.0 if i % 4 else -0.0) for i in range(20)]
    strategies = [make_strategy(i, median_compile_reduction=median)
                  for i, median in enumerate(medians)]
    result = retrieve_from(strategies, [0.99 - 0.01 * i for i in range(20)],
                           COMPILE_TIME)
    assert [r.strategy_id for r in result] == (
        [f"s{i:04d}" for i in range(1, 20, 2)]
        + [f"s{i:04d}" for i in range(0, 20, 2)])


def test_filter_keeps_compatible_in_order():
    strategies = [
        make_strategy(0, compatibility_set=frozenset({"v4.16.0"})),
        make_strategy(1, compatibility_set=frozenset()),
        make_strategy(2, compatibility_set=frozenset({"v4.16.0", "v4.22.0"})),
    ]
    result = retrieve_from(strategies, [0.9, 0.8, 0.7], version("v4.16.0"))
    assert [r.strategy_id for r in result] == ["s0000", "s0002"]
    assert [r.rank for r in result] == [1, 2]


def test_filter_all_compatible_is_identity_order():
    strategies = [make_strategy(i, compatibility_set=frozenset({"v4.22.0"}))
                  for i in range(3)]
    result = retrieve_from(strategies, [0.9, 0.8, 0.7], version("v4.22.0"))
    assert [r.strategy_id for r in result] == ["s0000", "s0001", "s0002"]


def test_filter_none_compatible_is_empty():
    strategies = [make_strategy(0, compatibility_set=frozenset())]
    assert retrieve_from(strategies, [0.9], version("v4.14.0")) == []


def test_filter_unknown_version():
    with pytest.raises(UnknownVersion):
        retrieve_from([make_strategy(0)], [0.9], version("v0.0.0"))


# --- retrieve (objective composition) ------------------------------------------

def objective_fixture():
    rng = np.random.default_rng(5)
    strategies = []
    vectors = []
    for i in range(20):
        compat = frozenset({"v4.16.0"}) if i % 3 == 0 else frozenset({"v4.22.0"})
        median = None if i % 7 == 0 else round(float(rng.uniform(-1, 1)), 6)
        strategies.append(make_strategy(i, compatibility_set=compat,
                                        median_compile_reduction=median))
        vectors.append(rng.standard_normal(8))
    bank = make_bank_with(strategies)
    index = make_index(vectors, ids=[s.id for s in strategies])
    query = rng.standard_normal(8)
    return bank, index, query, vectors


def test_retrieve_length_mode_is_top_k():
    bank, index, query, _ = objective_fixture()
    spec = ObjectiveSpec(mode=ObjectiveMode.LENGTH)
    with sized(3, 50):
        assert retrieve(index, bank, query, spec) == ranked(index, query, 3)


def test_retrieve_length_mode_ignores_the_target_version():
    # The unfiltered baseline: a target that would filter the version
    # objective's result leaves the length objective's unchanged.
    bank, index, query, _ = objective_fixture()
    with sized(5, 10):
        want = retrieve(index, bank, query, ObjectiveSpec())
        for target in VERSIONS:
            targeted = ObjectiveSpec(mode=ObjectiveMode.LENGTH,
                                     target_version=target)
            assert retrieve(index, bank, query, targeted) == want
        filtered = version("v4.16.0")
        assert retrieve(index, bank, query, filtered) != want


def test_retrieve_compile_mode_reranks_the_pool():
    bank, index, query, vectors = objective_fixture()
    with sized(3, 10):
        got = retrieve(index, bank, query, COMPILE_TIME)
        want = brute_force_retrieve(list(bank.strategies), vectors,
                                    list(bank.strategies.values()), query,
                                    COMPILE_TIME)
    assert [r.strategy_id for r in got] == [r.strategy_id for r in want]


def test_retrieve_version_mode_filters():
    bank, index, query, _ = objective_fixture()
    with sized(5, 10):
        got = retrieve(index, bank, query, version("v4.16.0"))
    for r in got:
        assert "v4.16.0" in bank.strategies[r.strategy_id].compatibility_set
    pool_ids = {r.strategy_id for r in ranked(index, query, 10)}
    assert all(r.strategy_id in pool_ids for r in got)


def test_retrieve_version_mode_can_be_empty():
    strategies = [make_strategy(i, compatibility_set=frozenset()) for i in range(3)]
    bank = make_bank_with(strategies)
    index = make_index([[1, 0], [0, 1], [1, 1]], ids=[s.id for s in strategies])
    with sized(2, 3):
        assert retrieve(index, bank, np.array([1.0, 0.5]),
                        version("v4.14.0")) == []


@pytest.mark.parametrize("spec", [
    ObjectiveSpec(),
    ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME),
    ObjectiveSpec(mode=ObjectiveMode.VERSION, target_version="v4.16.0"),
    ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME, target_version="v4.16.0"),
], ids=["length", "compile_time", "version", "compile_time+version"])
def test_retrieve_over_an_empty_index_is_empty(spec):
    # Even a query that a non-empty index would reject selects nothing.
    index = StrategyIndex([], np.empty((0, 3)))
    assert retrieve(index, make_bank_with([]), np.zeros(3), spec) == []


def test_retrieve_composed_filter_then_rerank():
    bank, index, query, vectors = objective_fixture()
    spec = ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME,
                         target_version="v4.16.0")
    with sized(4, 12):
        got = retrieve(index, bank, query, spec)
        want = brute_force_retrieve(list(bank.strategies), vectors,
                                    list(bank.strategies.values()), query,
                                    spec)
    assert [r.strategy_id for r in got] == [r.strategy_id for r in want]
    for r in got:
        assert "v4.16.0" in bank.strategies[r.strategy_id].compatibility_set


def test_retrieve_version_subset_of_length_at_same_pool():
    bank, index, query, _ = objective_fixture()
    with sized(10, 10):
        got_version = {r.strategy_id for r in retrieve(index, bank, query,
                                                       version("v4.16.0"))}
        got_length = {r.strategy_id for r in retrieve(index, bank, query,
                                                      ObjectiveSpec())}
    assert got_version <= got_length


@pytest.mark.parametrize("objective", [
    ObjectiveSpec(),
    COMPILE_TIME,
    version("v4.16.0"),
], ids=["length", "compile_time", "version"])
def test_retrieve_rejects_an_index_id_missing_from_the_bank(objective):
    bank = make_bank_with([make_strategy(0)])
    index = make_index([[1, 0], [0, 1]], ids=["s0000", "zzz"])
    with sized(2, 2), pytest.raises(IndexBankMismatch, match="zzz"):
        retrieve(index, bank, np.array([1.0, 0.0]), objective)


def test_retrieve_follows_the_bank_it_is_given():
    # One index queried with two banks in turn: the per-row columns
    # memoised for one bank must not serve the other.
    index = make_index([[1, 0], [0.8, 0.6]])
    first = make_bank_with([
        make_strategy(0, median_compile_reduction=0.1),
        make_strategy(1, median_compile_reduction=0.5,
                      compatibility_set=frozenset({"v4.22.0"})),
    ])
    second = make_bank_with([
        make_strategy(0, median_compile_reduction=0.5,
                      compatibility_set=frozenset({"v4.22.0"})),
        make_strategy(1, median_compile_reduction=0.1),
    ])
    query = np.array([1.0, 0.0])
    for bank, best in [(first, "s0001"), (second, "s0000"), (first, "s0001")]:
        for objective in (COMPILE_TIME, version("v4.22.0")):
            with sized(2, 2):
                got = retrieve(index, bank, query, objective)
            assert got[0].strategy_id == best


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(mode=ObjectiveMode.VERSION)
    with pytest.raises(ValueError):
        ObjectiveSpec(mode="fast")
    # A mode's string value is read as the member it names.
    assert ObjectiveSpec(mode="compile_time").mode is ObjectiveMode.COMPILE_TIME


@pytest.mark.parametrize("mode, target, expected", [
    (ObjectiveMode.LENGTH, None, None),
    (ObjectiveMode.LENGTH, "v4.16.0", None),
    (ObjectiveMode.COMPILE_TIME, None, None),
    (ObjectiveMode.COMPILE_TIME, "v4.16.0", "v4.16.0"),
    (ObjectiveMode.VERSION, "v4.16.0", "v4.16.0"),
])
def test_filter_version_is_the_target_except_under_length(mode, target,
                                                           expected):
    # The version objective needs a target: see the validation test above.
    assert ObjectiveSpec(mode=mode, target_version=target).filter_version == expected


# --- brute-force property ------------------------------------------------------

EXACT_DIM = 16


@st.composite
def exact_vectors(draw):
    """1, 4 or 16 entries of ±1 times a power of two.

    Unit rows then hold ±1, ±1/2 or ±1/4, so every product and partial sum
    of a cosine is exact: no summation order can move a similarity, and
    equal directions tie exactly.
    """
    nonzero = draw(st.sampled_from([1, 4, 16]))
    start = draw(st.integers(0, EXACT_DIM - nonzero))
    signs = draw(st.integers(0, 2 ** nonzero - 1))
    vector = np.zeros(EXACT_DIM)
    vector[start:start + nonzero] = [-1.0 if signs >> j & 1 else 1.0
                                     for j in range(nonzero)]
    return vector * draw(st.sampled_from([0.25, 1.0, 8.0]))


def brute_force_retrieve(ids, vectors, strategies, query, objective):
    """The retrieval rules as a Python sort on (-cosine, id)."""
    order = sorted(range(len(ids)),
                   key=lambda i: (-cosine(query, vectors[i]), ids[i]))
    if objective.mode == ObjectiveMode.LENGTH:
        chosen = order[:objective.k]
    else:
        chosen = order[:objective.pool_size]
        if objective.target_version is not None:
            chosen = [i for i in chosen if objective.target_version
                      in strategies[i].compatibility_set]
        if objective.mode == ObjectiveMode.COMPILE_TIME:
            def reduction(i):
                median = strategies[i].median_compile_reduction
                return (1, 0.0) if median is None else (0, -median)
            chosen.sort(key=reduction)
        chosen = chosen[:objective.k]
    return [RankedStrategy(ids[i], cosine(query, vectors[i]), rank)
            for rank, i in enumerate(chosen, start=1)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_top_k_and_retrieve_match_brute_force(data):
    # A few distinct directions shared by many strategies make many exact
    # ties; unique ids in drawn order are inserted out of id order.
    directions = data.draw(st.lists(exact_vectors(), min_size=1, max_size=5))
    n = data.draw(st.integers(1, 30))
    ids = data.draw(st.lists(st.text("abz019", min_size=1, max_size=3),
                             min_size=n, max_size=n, unique=True))
    picks = data.draw(st.lists(st.integers(0, len(directions) - 1),
                               min_size=n, max_size=n))
    medians = data.draw(st.lists(st.sampled_from([None, -0.5, -0.0, 0.0, 0.25,
                                                  0.75]),
                                 min_size=n, max_size=n))
    compatible = data.draw(st.lists(st.frozensets(st.sampled_from(VERSIONS)),
                                    min_size=n, max_size=n))
    vectors = [directions[p] for p in picks]
    strategies = [make_strategy(0, id=sid, median_compile_reduction=median,
                                compatibility_set=versions)
                  for sid, median, versions in zip(ids, medians, compatible)]
    bank = make_bank_with(strategies)
    index = make_index(vectors, ids=ids)
    query = data.draw(exact_vectors())
    k = data.draw(st.integers(1, n + 3))
    pool_size = data.draw(st.integers(k, n + 5))
    version = data.draw(st.sampled_from(VERSIONS))
    mode, target = data.draw(st.sampled_from([
        (ObjectiveMode.LENGTH, None),
        (ObjectiveMode.COMPILE_TIME, None),
        (ObjectiveMode.VERSION, version),
        (ObjectiveMode.COMPILE_TIME, version),
    ]))
    objective = ObjectiveSpec(mode=mode, target_version=target)

    with sized(k, pool_size):
        assert ranked(index, query, k) == brute_force_retrieve(
            ids, vectors, strategies, query, ObjectiveSpec())
        assert retrieve(index, bank, query, objective) == brute_force_retrieve(
            ids, vectors, strategies, query, objective)


# --- the two-stage scan ----------------------------------------------------------

def brute_force_top_k(ids, rows, query, k) -> list[RankedStrategy]:
    """The k best of the unit ``rows`` by a per-row ``np.dot`` with the unit
    query, ties by id."""
    q = np.asarray(query, dtype=np.float64)
    q = q / math.sqrt(q @ q)
    scored = sorted((-float(np.dot(row, q)), sid) for row, sid in zip(rows, ids))
    return [RankedStrategy(sid, -negated, rank)
            for rank, (negated, sid) in enumerate(scored[:k], start=1)]


@pytest.mark.parametrize("dimension", [2, 32, 768])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_near_ties_below_float32_resolution_rank_as_float64_does(dimension, data):
    # A cluster of rows 1e-10 to 1e-6 apart, which float32 cannot tell
    # apart, among unrelated rows; the query leans towards the cluster.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    centre = rng.standard_normal(dimension)
    spread = 10.0 ** data.draw(st.integers(-10, -6))
    size = data.draw(st.integers(2, 40))
    vectors = np.concatenate([
        centre + spread * rng.standard_normal((size, dimension)),
        rng.standard_normal((data.draw(st.integers(0, 60)), dimension))])
    vectors = vectors[rng.permutation(len(vectors))]
    ids = [f"s{i:04d}" for i in range(len(vectors))]
    index = StrategyIndex(ids, vectors)
    query = centre + 0.5 * rng.standard_normal(dimension)
    k = data.draw(st.integers(1, len(ids) + 2))
    assert ranked(index, query, k) == brute_force_top_k(ids, index._matrix, query, k)


@functools.cache
def wide_index_vectors() -> np.ndarray:
    return np.random.default_rng(13).standard_normal((10_000, 32))


@given(positions=st.lists(st.integers(0, 9_999), min_size=1, max_size=5),
       last=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_identical_rows_tie_exactly_in_id_order(positions, last, seed):
    # Copies of one non-dyadic row anywhere in a 10^4 index, the last rows
    # included, where a blocked matrix-vector product may sum differently.
    copies = sorted(set(positions) | set(range(10_000 - last, 10_000)))
    rng = np.random.default_rng(seed)
    row = rng.standard_normal(32)
    vectors = wide_index_vectors().copy()
    vectors[copies] = row
    ids = [f"s{i:05d}" for i in range(10_000)]
    index = StrategyIndex(ids, vectors)
    got = ranked(index, row + 0.05 * rng.standard_normal(32), len(copies))
    assert [r.strategy_id for r in got] == [ids[i] for i in copies]
    assert len({r.similarity for r in got}) == 1


@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_row_reports_the_same_similarity_whatever_k(seed, data):
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 300))
    dimension = data.draw(st.sampled_from([3, 32, 100]))
    index = make_index(list(rng.standard_normal((n, dimension))))
    query = rng.standard_normal(dimension)
    everything = ranked(index, query, n)
    for k in data.draw(st.lists(st.integers(1, n + 2), min_size=1, max_size=5)):
        assert ranked(index, query, k) == everything[:k]


# --- contrastive loss -----------------------------------------------------------

def test_loss_single_pair_is_exactly_zero():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((1, 8))
    assert contrastive_loss(q, q + 0.1, temperature=0.01, margin=0.1) == 0.0


def test_loss_symmetric_batch_is_ln2():
    # Two queries, all four similarities equal -> each term is log 2.
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    c = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert contrastive_loss(q, c, temperature=0.5, margin=0.1) == \
        pytest.approx(math.log(2), abs=1e-12)


def test_loss_masks_high_scoring_false_negative():
    # Sim(q1,c1+)=0.5, Sim(q1,c2+)=0.9 > 0.5 + 0.1 -> c2+ masked for q1.
    theta_pos = math.acos(0.5)
    theta_neg = math.acos(0.9)
    q1 = np.array([1.0, 0.0])
    c1 = np.array([math.cos(theta_pos), math.sin(theta_pos)])
    c2 = np.array([math.cos(theta_neg), math.sin(theta_neg)])
    # Make q2 far from both so only q1's masking matters for the check below.
    q2 = np.array([0.0, -1.0])
    got = contrastive_loss(np.vstack([q1, q2]), np.vstack([c1, c2]),
                           temperature=0.05, margin=0.1)
    want = brute_force_loss([q1, q2], [c1, c2], 0.05, 0.1)
    assert got == pytest.approx(want, abs=1e-9)
    # q1's term must be exactly zero: its only in-batch negative is masked.
    assert contrastive_loss(q1[None, :], c1[None, :], 0.05, 0.1) == 0.0


@pytest.mark.parametrize("queries, positives, margin, message", [
    (np.ones((2, 4)), np.ones((3, 4)), 0.1, "equal-shape"),
    (np.ones(4), np.ones(4), 0.1, "equal-shape"),
    (np.ones((0, 4)), np.ones((0, 4)), 0.1, "at least one pair"),
    (np.ones((2, 4)), np.ones((2, 4)), -0.1, "margin"),
], ids=["unequal_shapes", "one_dimensional", "empty_batch", "negative_margin"])
def test_loss_refuses_a_bad_batch_or_margin(queries, positives, margin,
                                            message):
    with pytest.raises(ValueError, match=message):
        contrastive_loss(queries, positives, temperature=0.1, margin=margin)


def test_loss_invalid_temperature():
    q = np.ones((2, 4))
    with pytest.raises(ValueError):
        contrastive_loss(q, q, temperature=0.0, margin=0.1)


def test_loss_rejects_zero_vector():
    q = np.ones((2, 4))
    c = q.copy()
    c[0] = 0.0
    with pytest.raises(DegenerateVector):
        contrastive_loss(q, c, temperature=0.1, margin=0.1)


@pytest.mark.parametrize("exponent", [600, -600])
@pytest.mark.parametrize("scaled", ["queries", "positives", "both", "one_row"])
def test_loss_of_rows_scaled_by_a_power_of_two_is_bit_identical(exponent,
                                                                scaled):
    # A squared norm of 2^±1200 over- or underflows; the rows are prescaled
    # by a power of two first, which is exact.
    rng = np.random.default_rng(4)
    q = rng.standard_normal((5, 8))
    c = rng.standard_normal((5, 8))
    want = contrastive_loss(q, c, 0.05, 0.1)
    sq, sc = q.copy(), c.copy()
    if scaled in ("queries", "both"):
        sq = np.ldexp(q, exponent)
    if scaled in ("positives", "both"):
        sc = np.ldexp(c, exponent)
    if scaled == "one_row":
        sq[2] = np.ldexp(q[2], exponent)
    assert contrastive_loss(sq, sc, 0.05, 0.1) == want


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["queries", "positives"])
def test_loss_rejects_a_non_finite_row(value, side):
    rows = {"queries": np.ones((3, 4)), "positives": np.ones((3, 4))}
    rows[side][1, 2] = value
    with pytest.raises(DegenerateVector):
        contrastive_loss(rows["queries"], rows["positives"], 0.1, 0.1)


def test_loss_leaves_its_inputs_unchanged():
    q = np.random.default_rng(2).standard_normal((4, 6))
    c = q[::-1] * 3.0
    before = q.copy(), c.copy()
    contrastive_loss(q, c, 0.1, 0.1)
    assert np.array_equal(q, before[0]) and np.array_equal(c, before[1])


def test_loss_matches_brute_force_on_random_batches():
    rng = np.random.default_rng(123)
    for _ in range(200):
        B = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 17))
        q = rng.standard_normal((B, dim))
        c = rng.standard_normal((B, dim))
        tau = float(rng.uniform(0.01, 1.0))
        m = float(rng.uniform(0.0, 0.5))
        got = contrastive_loss(q, c, tau, m)
        want = brute_force_loss(list(q), list(c), tau, m)
        assert got == pytest.approx(want, abs=1e-9)
        assert got >= -1e-12


def test_loss_invariant_under_simultaneous_permutation():
    rng = np.random.default_rng(9)
    q = rng.standard_normal((6, 8))
    c = rng.standard_normal((6, 8))
    perm = rng.permutation(6)
    a = contrastive_loss(q, c, 0.05, 0.1)
    b = contrastive_loss(q[perm], c[perm], 0.05, 0.1)
    assert a == pytest.approx(b, abs=1e-12)


# --- mock embedder ---------------------------------------------------------------

def test_mock_embedder_deterministic():
    embedder = MockEmbedder(dimension=16, seed=3)
    a = embedder.embed(["abc", "def"])
    b = embedder.embed(["abc", "def"])
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], a[1])


def test_mock_embedder_empty_input():
    vectors = MockEmbedder().embed([])
    assert (vectors.dtype, vectors.shape) == (np.float64, (0, 32))


def test_mock_embedder_dimension_and_norm():
    embedder = MockEmbedder(dimension=24)
    (v,) = embedder.embed(["segment text"])
    assert v.shape == (24,)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_provider_contract_violation_detectable():
    class BadProvider:
        dimension = 8

        def embed(self, texts):
            from prooftidy.embeddings import _check_batch
            vectors = [np.ones(4) for _ in texts]
            return _check_batch(vectors, len(texts), self.dimension)

    with pytest.raises(ProviderContractViolation):
        BadProvider().embed(["x"])


def test_index_build_finds_exact_when_to_apply(tmp_path):
    strategies = [make_strategy(i, when_to_apply=f"pattern number {i}")
                  for i in range(5)]
    bank = make_bank_with(strategies)
    embedder = MockEmbedder(dimension=16, seed=1)
    index = StrategyIndex.build(bank, embedder)
    (query,) = embedder.embed(["pattern number 3"])
    result = ranked(index, query, 1)
    assert result[0].strategy_id == "s0003"
    assert result[0].similarity == pytest.approx(1.0)


# --- persisted index vectors ---------------------------------------------------

class RecordingEmbedder(MockEmbedder):
    """A MockEmbedder that records each batch of texts it is asked for."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.batches: list[list[str]] = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return super().embed(texts)

    @property
    def texts(self) -> list[str]:
        return [t for batch in self.batches for t in batch]


TEXTS = [f"pattern number {i}" for i in range(6)]


def saved_bank(tmp_path) -> Bank:
    save_bank(make_bank_with(make_strategy(i, when_to_apply=text)
                             for i, text in enumerate(TEXTS)), tmp_path)
    return load_bank(tmp_path, REGISTRY)


def vectors_files(directory) -> list:
    return sorted(directory.glob("index-vectors-*"))


@pytest.fixture
def members_read(monkeypatch) -> list[str]:
    """The names of the vectors file's members that builds read, in order."""
    names, read = [], retrieval._read_member

    def recording(archive, name, dtype, shape):
        names.append(name)
        return read(archive, name, dtype, shape)

    monkeypatch.setattr(retrieval, "_read_member", recording)
    return names


def cold_matrix(texts=TEXTS) -> np.ndarray:
    bank = make_bank_with(make_strategy(i, when_to_apply=text)
                          for i, text in enumerate(texts))
    assert bank.path is None
    return StrategyIndex.build(bank, MockEmbedder())._matrix


def test_a_warm_build_embeds_nothing_and_matches_a_cold_build(tmp_path,
                                                             members_read):
    bank = saved_bank(tmp_path)
    assert bank.path == tmp_path
    first = RecordingEmbedder()
    assert np.array_equal(StrategyIndex.build(bank, first)._matrix, cold_matrix())
    assert first.batches == [TEXTS]
    (path,) = vectors_files(tmp_path)
    assert path.suffix == ".npz"
    warm = RecordingEmbedder()
    index = StrategyIndex.build(load_bank(tmp_path, REGISTRY), warm)
    assert warm.texts == []
    assert np.array_equal(index._matrix, cold_matrix())
    assert vectors_files(tmp_path) == [path]
    assert members_read == ["model", "dimension", "digests", "vectors"]


# Each a bank's strategies after a curator's change to the saved bank's.
BANK_CHANGES = {
    "text_edited": lambda ss: [dataclasses.replace(s, when_to_apply="new")
                               if s.id == "s0002" else s for s in ss],
    "reordered": lambda ss: ss[::-1],
    "strategy_added": lambda ss: ss + [make_strategy(6, when_to_apply="new")],
    "strategy_removed": lambda ss: [s for s in ss if s.id != "s0002"],
}


@pytest.mark.parametrize("change", BANK_CHANGES.values(), ids=BANK_CHANGES.keys())
def test_a_bank_whose_texts_changed_is_embedded_whole_in_one_batch(
        tmp_path, members_read, change):
    bank = saved_bank(tmp_path)
    StrategyIndex.build(bank, MockEmbedder())
    (path,) = vectors_files(tmp_path)
    bank.strategies = {s.id: s for s in change(list(bank.strategies.values()))}
    texts = [s.when_to_apply for s in bank.strategies.values()]
    embedder = RecordingEmbedder()
    index = StrategyIndex.build(bank, embedder)
    # The file holds other digests, so its vectors are not read.
    assert members_read == ["model", "dimension", "digests"]
    assert embedder.batches == [texts]
    assert np.array_equal(index._matrix, cold_matrix(texts))
    assert vectors_files(tmp_path) == [path]
    again = RecordingEmbedder()
    StrategyIndex.build(bank, again)
    assert again.texts == []


def _rewrite(path, drop=(), **changes):
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files if key not in drop}
    arrays.update(changes)
    np.savez(path, allow_pickle=True, **arrays)


def _with_row(vectors, value):
    vectors = vectors.copy()
    vectors[0] = value
    return vectors


def _stored(path, key):
    with np.load(path, allow_pickle=False) as data:
        return data[key]


def _flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _flip_last_vector_byte(path):
    # Members are stored in write order; the vectors end where model begins.
    with zipfile.ZipFile(path) as archive:
        _flip_byte(path, archive.getinfo("model.npy").header_offset - 1)


def _set_directory_byte(path, offset, value):
    # A field of the first central directory entry (digests.npy).
    data = bytearray(path.read_bytes())
    data[data.index(b"PK\x01\x02") + offset] = value
    path.write_bytes(bytes(data))


def _append_to_vectors(path):
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members["vectors.npy"] += b"\x00" * 8
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def _member_header(name, shape):
    """A corruption: member ``name``'s header names ``shape``; its data is
    kept as it was."""
    def corrupt(path):
        with zipfile.ZipFile(path) as archive:
            members = {n: archive.read(n) for n in archive.namelist()}
        array = np.load(io.BytesIO(members[name]), allow_pickle=False)
        header = np.lib.format.header_data_from_array_1_0(array)
        fh = io.BytesIO()
        np.lib.format.write_array_header_1_0(fh, {**header, "shape": shape})
        members[name] = fh.getvalue() + array.tobytes()
        with zipfile.ZipFile(path, "w") as archive:
            for n, data in members.items():
                archive.writestr(n, data)
    return corrupt


def _vectors_in_format_2(path):
    with zipfile.ZipFile(path) as archive:
        members = {n: archive.read(n) for n in archive.namelist()}
    fh = io.BytesIO()
    np.lib.format.write_array(fh, _stored(path, "vectors"), version=(2, 0))
    members["vectors.npy"] = fh.getvalue()
    with zipfile.ZipFile(path, "w") as archive:
        for n, data in members.items():
            archive.writestr(n, data)


def _vectors_cut_short(path):
    # vectors.npy stored 8 bytes short, with the CRC of the bytes kept, and
    # a central directory entry that claims the full size: zipfile reads
    # the short member to its end without an error.
    with zipfile.ZipFile(path) as archive:
        members = {n: archive.read(n) for n in archive.namelist()}
    full = len(members["vectors.npy"])
    members["vectors.npy"] = members["vectors.npy"][:-8]
    with zipfile.ZipFile(path, "w") as archive:
        for n, data in members.items():
            archive.writestr(n, data)
    data = bytearray(path.read_bytes())
    # The last occurrence of the name is in the central directory, whose
    # entry holds it 46 bytes in and the uncompressed size 24 bytes in.
    entry = data.rindex(b"vectors.npy") - 46
    assert data[entry:entry + 4] == b"PK\x01\x02"
    struct.pack_into("<I", data, entry + 24, full)
    path.write_bytes(bytes(data))


def _bare_npy(path):
    vectors = _stored(path, "vectors")
    with path.open("wb") as fh:
        np.save(fh, vectors)


CORRUPTIONS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[:p.stat().st_size // 2]),
    "not_a_zip": lambda p: p.write_bytes(b"not a vectors file"),
    "bare_npy": _bare_npy,
    "encrypted_flag": lambda p: _set_directory_byte(p, 8, 1),
    "unknown_compression": lambda p: _set_directory_byte(p, 10, 99),
    "flipped_vector_byte": _flip_last_vector_byte,
    "bytes_after_vectors": _append_to_vectors,
    "missing_key": lambda p: _rewrite(p, drop=("model",)),
    "pickled_digests": lambda p: _rewrite(
        p, digests=np.array([b"x"] * len(TEXTS), dtype=object)),
    "wrong_dimension": lambda p: _rewrite(p, vectors=_stored(p, "vectors")[:, :-1]),
    "transposed": lambda p: _rewrite(p, vectors=_stored(p, "vectors").T.copy()),
    "fortran_order": lambda p: _rewrite(
        p, vectors=np.asfortranarray(_stored(p, "vectors"))),
    "big_endian": lambda p: _rewrite(
        p, vectors=_stored(p, "vectors").astype(">f8")),
    "wrong_stored_dimension": lambda p: _rewrite(p, dimension=np.array(31)),
    "float32": lambda p: _rewrite(
        p, vectors=_stored(p, "vectors").astype(np.float32)),
    "nan": lambda p: _rewrite(p, vectors=_with_row(_stored(p, "vectors"), np.nan)),
    "inf": lambda p: _rewrite(p, vectors=_with_row(_stored(p, "vectors"), np.inf)),
    "zero_row": lambda p: _rewrite(p, vectors=_with_row(_stored(p, "vectors"), 0.0)),
    "one_digest_short": lambda p: _rewrite(p, digests=_stored(p, "digests")[:-1]),
    "scalar_digests": lambda p: _rewrite(p, digests=np.array(0, dtype=np.uint8)),
    "other_model": lambda p: _rewrite(p, model=np.array("mock-seed1")),
    "format_version_2": _vectors_in_format_2,
    "vectors_cut_short": _vectors_cut_short,
    # A header naming a shape numpy's reader would allocate: 29.1 TiB.
    "huge_digests": _member_header("digests.npy", (10 ** 12, 32)),
    "huge_model": _member_header("model.npy", (10 ** 12,)),
    "huge_dimension": _member_header("dimension.npy", (10 ** 12,)),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_a_bad_vectors_file_is_re_embedded_and_overwritten(tmp_path, corrupt):
    bank = saved_bank(tmp_path)
    StrategyIndex.build(bank, MockEmbedder())
    (path,) = vectors_files(tmp_path)
    corrupt(path)
    embedder = RecordingEmbedder()
    index = StrategyIndex.build(bank, embedder)
    assert embedder.batches == [TEXTS]
    assert np.array_equal(index._matrix, cold_matrix())
    assert vectors_files(tmp_path) == [path]
    again = RecordingEmbedder()
    StrategyIndex.build(bank, again)
    assert again.texts == []


def test_a_failed_write_still_returns_the_index_and_logs_one_warning(
        tmp_path, monkeypatch, caplog):
    def refuse(src, dst):
        raise OSError(30, "Read-only file system")

    bank = saved_bank(tmp_path)
    monkeypatch.setattr(os, "replace", refuse)
    with caplog.at_level(logging.WARNING, logger="prooftidy.retrieval"):
        index = StrategyIndex.build(bank, MockEmbedder())
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "Read-only file system" in caplog.records[0].getMessage()
    assert vectors_files(tmp_path) == []  # no file, and no temp file left
    assert np.array_equal(index._matrix, cold_matrix())
    (query,) = MockEmbedder().embed([TEXTS[3]])
    assert ranked(index, query, 1)[0].strategy_id == "s0003"


def test_a_lone_surrogate_is_embedded_and_indexed(tmp_path):
    (vector,) = MockEmbedder().embed(["a \ud800 b"])
    assert vector.shape == (32,)
    saved_bank(tmp_path)
    path = tmp_path / "strategies.jsonl"
    path.write_text(path.read_text().replace(TEXTS[3], "a \\ud800 b"))
    bank = load_bank(tmp_path, REGISTRY)
    assert bank.strategies["s0003"].when_to_apply == "a \ud800 b"
    index = StrategyIndex.build(bank, MockEmbedder())
    assert ranked(index, vector, 1)[0].strategy_id == "s0003"
    warm = RecordingEmbedder()
    StrategyIndex.build(bank, warm)
    assert warm.texts == []


def test_each_embedder_keeps_its_own_vectors_file(tmp_path):
    bank = saved_bank(tmp_path)
    embedders = [MockEmbedder(), MockEmbedder(seed=1), MockEmbedder(dimension=8)]
    cold = [StrategyIndex.build(bank, e)._matrix for e in embedders]
    assert len(vectors_files(tmp_path)) == 3
    for embedder, matrix in zip(embedders, cold):
        recording = RecordingEmbedder(dimension=embedder.dimension,
                                      seed=embedder.seed)
        assert np.array_equal(StrategyIndex.build(bank, recording)._matrix, matrix)
        assert recording.texts == []


def test_concurrent_builds_leave_one_valid_file(tmp_path, caplog):
    texts = [f"pattern number {i}" for i in range(400)]
    save_bank(make_bank_with(make_strategy(i, when_to_apply=text)
                             for i, text in enumerate(texts)), tmp_path)
    bank = load_bank(tmp_path, REGISTRY)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(StrategyIndex.build, bank, MockEmbedder())
                       for _ in range(16)]
            matrices = [f.result(timeout=60)._matrix for f in futures]
    finally:
        sys.setswitchinterval(interval)
    expected = StrategyIndex.build(dataclasses.replace(bank, path=None),
                                   MockEmbedder())._matrix
    assert all(np.array_equal(m, expected) for m in matrices)
    assert caplog.records == []
    assert len(vectors_files(tmp_path)) == 1
    warm = RecordingEmbedder()
    assert np.array_equal(StrategyIndex.build(bank, warm)._matrix, expected)
    assert warm.texts == []
