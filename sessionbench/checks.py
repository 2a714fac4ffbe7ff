"""Output checks computed apart from the program.

Lengths come from ``tests/reference_metric.py``, verdicts from the oracle
compiler, statements from the generator's own text, and retrieval from a
brute-force numpy ranking.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np


def load_reference_length(root: Path):
    spec = importlib.util.spec_from_file_location(
        "reference_metric", root / "tests" / "reference_metric.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_proof_length


class SessionChecker:
    """Checks one session's result; returns the list of what failed."""

    def __init__(self, reference_length, oracle, budget: int, target: str):
        self._ref = reference_length
        self._lengths: dict[str, int] = {}
        self.oracle = oracle
        self.budget = budget
        self.target = target

    def length(self, text: str) -> int:
        n = self._lengths.get(text)
        if n is None:
            n = self._lengths[text] = self._ref(text)
        return n

    def __call__(self, theorem: dict, result, calls_answered: int) -> list[str]:
        from prooftidy.compiler import CompileRequest

        problems = []
        if result.initial_length != self.length(theorem["proof"]):
            problems.append("initial_length differs from the reference metric")
        if result.final_length != self.length(result.final_proof):
            problems.append("final_length differs from the reference metric")
        if not (self.length(theorem["minimal_proof"]) <= result.final_length
                <= result.initial_length):
            problems.append("final length outside [known minimum, initial]")
        verdict = self.oracle.check(CompileRequest(
            source=result.final_proof, toolchain_version=self.target))
        if not verdict.ok:
            problems.append(f"final proof does not compile on {self.target}")
        if result.final_proof.split("\n", 1)[0] != theorem["statement"] + " by":
            problems.append("final proof's statement differs from the input's")
        if not (result.calls_used <= self.budget
                and result.calls_used == calls_answered):
            problems.append(f"calls_used {result.calls_used} vs budget "
                            f"{self.budget} and {calls_answered} answered")
        return problems


class BruteForceRetrieval:
    """Retrieval by the paper's rules, recomputed from the bank's records.

    length: top k by cosine. Otherwise take the top ``pool_size``, keep
    the target toolchain's strategies when one is set, rerank by stored
    compile reduction (missing last, stable) under the compile objective,
    and truncate to k. Ties go to the smaller id.
    """

    def __init__(self, records: list[dict], embedder):
        self.records = records
        self.ids = np.array([r["id"] for r in records])
        keys = np.array(embedder.embed([r["when_to_apply"] for r in records]))
        self.keys = keys / np.linalg.norm(keys, axis=1, keepdims=True)

    def __call__(self, query, objective) -> list[tuple[str, float]]:
        from prooftidy.retrieval import ObjectiveMode

        sims = self.keys @ (np.asarray(query) / np.linalg.norm(query))
        order = np.lexsort((self.ids, -sims))
        if objective.mode == ObjectiveMode.LENGTH:
            chosen = list(order[:objective.k])
        else:
            chosen = list(order[:objective.pool_size])
            if objective.target_version is not None:
                chosen = [i for i in chosen if objective.target_version
                          in self.records[i]["compatibility_set"]]
            if objective.mode == ObjectiveMode.COMPILE_TIME:
                def reduction(i):
                    r = self.records[i]["median_compile_reduction"]
                    return (1, 0.0) if r is None else (0, -r)
                chosen.sort(key=reduction)
            chosen = chosen[:objective.k]
        return [(str(self.ids[i]), float(sims[i])) for i in chosen]


def retrieval_matches(got, expected) -> bool:
    return (len(got) == len(expected)
            and all(r.strategy_id == i and r.rank == n and abs(r.similarity - s) < 1e-9
                    for n, (r, (i, s)) in enumerate(zip(got, expected), start=1)))
