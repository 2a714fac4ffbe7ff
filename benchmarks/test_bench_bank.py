"""Layer microbenchmarks for bank persistence.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_bank.py

Times ``save_bank`` and ``load_bank`` (schema validation included) on a
seeded bank of 10² and 10⁴ strategies with one member pair each, in a
temporary directory. A pair's proofs are six and two tactic lines; every
fourth strategy and pair has no compile reduction.
"""

from __future__ import annotations

import functools
import random

import pytest

from prooftidy.bank import (
    Bank,
    ProofPair,
    Strategy,
    ToolchainRegistry,
    load_bank,
    save_bank,
)

VERSIONS = ("v4.24.0", "v4.9.0", "v4.16.0", "v4.22.0")
REGISTRY = ToolchainRegistry(entries=tuple(
    (v, f"toolchains/{v}") for v in VERSIONS))
SIZES = (100, 10_000)


@functools.cache
def bank(n: int) -> Bank:
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
    return Bank(strategies=strategies, pairs=pairs, registry=REGISTRY)


@pytest.mark.parametrize("n", SIZES)
def test_save_bank(benchmark, tmp_path, n):
    benchmark(save_bank, bank(n), tmp_path)
    assert (tmp_path / "strategies.jsonl").stat().st_size > 0


@pytest.mark.parametrize("n", SIZES)
def test_load_bank(benchmark, tmp_path, n):
    save_bank(bank(n), tmp_path)
    loaded = benchmark(load_bank, tmp_path, REGISTRY)
    assert loaded.strategies == bank(n).strategies
    assert loaded.pairs == bank(n).pairs
