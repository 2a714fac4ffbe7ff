"""Layer microbenchmarks for strategy retrieval.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_retrieval.py

Times one ``StrategyIndex.top_k`` selection (the row and similarity
arrays, before any ``RankedStrategy`` is built) at 10², 10³ and 10⁴
strategies, and one ``retrieve`` for each objective at 10² and 10⁴ strategies with
the default ``k`` and ``pool_size``. Keys are seeded standard-normal rows
of the mock embedder's dimension. Every fourth strategy has no compile
metadata, and every other one is compatible with the target toolchain.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from prooftidy.bank import Bank, Strategy, ToolchainRegistry
from prooftidy.retrieval import ObjectiveMode, ObjectiveSpec, StrategyIndex, retrieve

DIMENSION = 32
NATIVE, TARGET = "v4.24.0", "v4.16.0"
REGISTRY = ToolchainRegistry(entries=((NATIVE, "toolchains/native"),
                                      (TARGET, "toolchains/target")))
OBJECTIVES = {
    "length": ObjectiveSpec(),
    "compile_time": ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME),
    "version": ObjectiveSpec(mode=ObjectiveMode.VERSION, target_version=TARGET),
    "compile_time+version": ObjectiveSpec(mode=ObjectiveMode.COMPILE_TIME,
                                          target_version=TARGET),
}


@functools.cache
def world(n: int) -> tuple[Bank, StrategyIndex, np.ndarray]:
    """A bank of n strategies, its index and a query, built once per size."""
    rng = np.random.default_rng(n)
    strategies = {}
    for i in range(n):
        sid = f"s{i:05d}"
        strategies[sid] = Strategy(
            id=sid, title=f"strategy {i}", description="d",
            when_to_apply="w", application_guide=("g",),
            abstract_example=("before", "after"),
            potential_reduction="medium",
            median_compile_reduction=(None if i % 4 == 0
                                      else float(rng.uniform(-1, 1))),
            compatibility_set=frozenset({TARGET} if i % 2 else ()),
        )
    bank = Bank(strategies=strategies, registry=REGISTRY)
    index = StrategyIndex(list(strategies), rng.standard_normal((n, DIMENSION)))
    return bank, index, rng.standard_normal(DIMENSION)


@pytest.mark.parametrize("n", [100, 1_000, 10_000])
def test_top_k(benchmark, n):
    _, index, query = world(n)
    rows, sims = benchmark(index.top_k, query, 8)
    assert len(rows) == len(sims) == 8


@pytest.mark.parametrize("objective", list(OBJECTIVES))
@pytest.mark.parametrize("n", [100, 10_000])
def test_retrieve(benchmark, n, objective):
    bank, index, query = world(n)
    result = benchmark(retrieve, index, bank, query, OBJECTIVES[objective])
    assert 0 < len(result) <= 8
