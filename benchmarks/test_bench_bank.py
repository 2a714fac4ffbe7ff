"""Layer microbenchmarks for bank persistence and the index built over it.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_bank.py

Times ``save_bank``, ``load_bank`` and ``recheck`` (schema validation
included) on a seeded bank of 10² and 10⁴ strategies with one member pair
each, in a temporary directory. A pair's proofs are six and two tactic
lines; every fourth strategy and pair has no compile reduction.
``load_bank`` reads the strategies alone; ``recheck`` streams the pairs
file and finds no discrepancy. ``test_load_bank`` and ``test_recheck``
also record, in ``extra_info``, the ``tracemalloc`` peak of one untimed
call (for a load, the loaded bank included); ``test_load_bank`` records
as well the heap that one loaded bank holds. ``test_build_index`` times
``StrategyIndex.build`` over the 10⁴-strategy bank with ``MockEmbedder``:
the bank is built in memory, so every text is embedded (a cold build).
``test_build_index_persisted`` times the warm build over the same bank
saved and loaded, whose vectors file an untimed first build wrote. Both
record the ``tracemalloc`` peak of one untimed build (the index it
returns included): the cold one in memory, and for the loaded bank the
first build, which embeds every text and writes the file, and a warm one.
``test_setup`` times, as one number, the set-up the session benchmark
runs: ``load_bank``, ``recheck`` and a warm ``StrategyIndex.build`` over
the 10⁴-strategy bank. ``load_bank``, ``recheck`` and the set-up run a
fixed number of rounds (``ROUNDS``), many more at 10⁴ than a one-second
budget allows, so that a host's swings in speed move their medians less.
"""

from __future__ import annotations

import functools
import random
import tracemalloc

import pytest

from prooftidy.bank import (
    Bank,
    ProofPair,
    Strategy,
    ToolchainRegistry,
    load_bank,
    recheck,
    save_bank,
)
from prooftidy.embeddings import MockEmbedder
from prooftidy.retrieval import StrategyIndex

VERSIONS = ("v4.24.0", "v4.9.0", "v4.16.0", "v4.22.0")
REGISTRY = ToolchainRegistry(entries=tuple(
    (v, f"toolchains/{v}") for v in VERSIONS))
SIZES = (100, 10_000)
#: Timed rounds of ``load_bank``, ``recheck`` and the set-up, per bank size.
ROUNDS = {100: 200, 10_000: 20}


@functools.cache
def generated(n: int) -> tuple[Bank, tuple[ProofPair, ...]]:
    """The bank of ``n`` strategies, and its ``n`` member pairs."""
    rng = random.Random(n)
    strategies, pairs = {}, {}
    for i in range(n):
        sid, pid = f"s{i:05d}", f"p{i:05d}"
        reduction = None if i % 4 == 0 else round(rng.uniform(-1, 1), 6)
        compat = frozenset(v for v in VERSIONS if rng.random() < 0.5)
        strategies[sid] = Strategy(
            id=sid, title=f"Collapse case split {i}",
            description=f"Replace exhaustive case analysis {i} with one lemma.",
            when_to_apply=f"Matrix equality proved entry by entry ({i})",
            application_guide=("Delete the per-entry haves",
                               "Use ext and fin_cases"),
            abstract_example=("have h1 ... have h4 ...", "ext i j <;> simp"),
            potential_reduction=rng.choice(("high", "medium", "low")),
            median_compile_reduction=reduction,
            compatibility_set=compat,
            member_pair_ids=(pid,),
        )
        pairs[pid] = ProofPair(
            id=pid, statement=f"theorem t{i} (a b : ℕ) : a + b = b + a",
            long_proof="\n".join(f"  have h{j} : a + {j} = {j} + a := by omega"
                                 for j in range(5)) + "\n  omega",
            short_proof="  omega\n  done",
            source_corpus="synthetic",
            compile_reduction=reduction,
            version_status={v: ("compiles" if v in compat else "fails")
                            for v in VERSIONS},
            grounded_spans=((sid, 1, 5),),
            long_verified=True,
            short_verified=True,
        )
    return (Bank(strategies=strategies, registry=REGISTRY),
            tuple(pairs.values()))


def bank(n: int) -> Bank:
    return generated(n)[0]


def save(n: int, path) -> None:
    bank, pairs = generated(n)
    save_bank(bank, path, pairs)


def tracemalloc_peak_mib(call, *args):
    """The ``tracemalloc`` peak of one ``call(*args)``, in MiB."""
    tracemalloc.start()
    try:
        call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 2**20, 3)


def tracemalloc_held_mib(call, *args):
    """The ``tracemalloc`` heap that one ``call(*args)`` leaves allocated
    while its result is alive, in MiB."""
    tracemalloc.start()
    try:
        result = call(*args)  # noqa: F841 -- held while the heap is read
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return round(held / 2**20, 3)


@pytest.mark.parametrize("n", SIZES)
def test_save_bank(benchmark, tmp_path, n):
    saved, pairs = generated(n)
    benchmark(save_bank, saved, tmp_path, pairs)
    assert (tmp_path / "strategies.jsonl").stat().st_size > 0
    assert (tmp_path / "pairs.jsonl").stat().st_size > 0


@pytest.mark.parametrize("n", SIZES)
def test_load_bank(benchmark, tmp_path, n):
    save(n, tmp_path)
    benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc_peak_mib(
        load_bank, tmp_path, REGISTRY)
    benchmark.extra_info["tracemalloc_held_mib"] = tracemalloc_held_mib(
        load_bank, tmp_path, REGISTRY)
    loaded = benchmark.pedantic(load_bank, (tmp_path, REGISTRY),
                                rounds=ROUNDS[n])
    assert loaded.strategies == bank(n).strategies


@pytest.mark.parametrize("n", SIZES)
def test_recheck(benchmark, tmp_path, n):
    save(n, tmp_path)
    loaded = load_bank(tmp_path, REGISTRY)
    benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc_peak_mib(
        recheck, loaded)
    assert benchmark.pedantic(recheck, (loaded,), rounds=ROUNDS[n]) == []


def test_build_index(benchmark):
    benchmark.extra_info["tracemalloc_peak_mib"] = tracemalloc_peak_mib(
        StrategyIndex.build, bank(10_000), MockEmbedder())
    index = benchmark(StrategyIndex.build, bank(10_000), MockEmbedder())
    assert len(index) == 10_000


def test_build_index_persisted(benchmark, tmp_path):
    save(10_000, tmp_path)
    loaded = load_bank(tmp_path, REGISTRY)
    benchmark.extra_info["cold_tracemalloc_peak_mib"] = tracemalloc_peak_mib(
        StrategyIndex.build, loaded, MockEmbedder())
    benchmark.extra_info["warm_tracemalloc_peak_mib"] = tracemalloc_peak_mib(
        StrategyIndex.build, loaded, MockEmbedder())
    index = benchmark(StrategyIndex.build, loaded, MockEmbedder())
    assert len(index) == 10_000


def set_up(path):
    """Load the bank at ``path``, recheck it and build its index."""
    loaded = load_bank(path, REGISTRY)
    return recheck(loaded), StrategyIndex.build(loaded, MockEmbedder())


@pytest.mark.parametrize("n", [10_000])
def test_setup(benchmark, tmp_path, n):
    save(n, tmp_path)
    set_up(tmp_path)  # writes the vectors file: the timed builds are warm
    discrepancies, index = benchmark.pedantic(set_up, (tmp_path,),
                                              rounds=ROUNDS[n])
    assert discrepancies == []
    assert len(index) == n
