"""The session benchmark's contract with the program.

The benchmark under ``sessionbench/`` calls the program's API from its own
files, which tier-1 ``testpaths`` do not collect. These tests run its own
tests, and its set-up, retrieval check and sessions on a small bank of
each workload, so that a change to an API the benchmark calls, or to what
it checks of each session, fails here.
"""

from __future__ import annotations

import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from prooftidy.bank import ToolchainRegistry, load_bank, recheck
from prooftidy.errors import SchemaError
from prooftidy.retrieval import StrategyIndex

ROOT = Path(__file__).resolve().parent.parent
SESSIONBENCH = ROOT / "sessionbench"


@pytest.fixture(scope="module")
def bench_modules():
    """The benchmark's ``gen`` and ``ports`` modules, imported as its
    scripts import them: from the ``sessionbench`` directory."""
    sys.path.insert(0, str(SESSIONBENCH))
    try:
        return importlib.import_module("gen"), importlib.import_module("ports")
    finally:
        sys.path.remove(str(SESSIONBENCH))


def write_small(gen, name: str, out: Path):
    """The workload's files at the size of the benchmark's own tests, at
    seed 1; returns the workload at that size."""
    w = dataclasses.replace(gen.WORKLOADS[name], sessions=6, strategies=25)
    gen.write(w, 1, out)
    return w


def test_the_benchmarks_own_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "sessionbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", ["bank10k_length", "longproof_compile",
                                  "repair_version"])
def test_the_benchmarks_set_up_runs_on_each_workload(bench_modules, tmp_path,
                                                     name):
    gen, ports = bench_modules
    assert name in gen.WORKLOADS
    write_small(gen, name, tmp_path)
    registry = ToolchainRegistry.from_file(tmp_path / "registry.json")
    bank = load_bank(tmp_path, registry)
    assert len(bank.strategies) == 25
    assert recheck(bank) == []
    index = StrategyIndex.build(bank, ports.CountingEmbedder())
    assert len(index) == 25


@pytest.mark.parametrize("name", ["bank10k_length", "longproof_compile",
                                  "repair_version"])
def test_the_benchmarks_sessions_run_on_each_workload(bench_modules, tmp_path,
                                                      monkeypatch, name):
    # Each session twice: the second run must repeat the first's to_json.
    # A skip reason the benchmark does not know raises KeyError, and a
    # broken promise is a problem its SessionChecker reports.
    gen, _ = bench_modules
    monkeypatch.syspath_prepend(str(SESSIONBENCH))
    run = importlib.import_module("run")
    w = write_small(gen, name, tmp_path)
    bench = run.Bench(w, 1, tmp_path)
    bench.setup()
    for i in range(len(bench.theorems)):
        for _ in range(2):
            assert bench.session(i)["problems"] == [], (name, i)
    assert bench.problems == []


@pytest.mark.parametrize("name", ["bank10k_length", "longproof_compile",
                                  "repair_version"])
def test_the_benchmarks_retrieval_check_passes_on_each_workload(
        bench_modules, tmp_path, monkeypatch, name):
    # The benchmark compares retrieve with its brute force, which reads
    # the objective's k and pool_size; only a full run calls it otherwise.
    gen, _ = bench_modules
    monkeypatch.syspath_prepend(str(SESSIONBENCH))
    run = importlib.import_module("run")
    w = write_small(gen, name, tmp_path)
    bench = run.Bench(w, 1, tmp_path)
    bench.setup()
    bench.check_retrieval()
    assert bench.problems == []


@pytest.mark.parametrize("name", ["bank10k_length", "longproof_compile",
                                  "repair_version"])
def test_a_traced_session_reaches_every_traced_name(bench_modules, tmp_path,
                                                    monkeypatch, name):
    # A memo or an inlined call that bypasses a name the tracer wraps
    # would report that layer as 0 in a traced run, and fail nothing else.
    gen, _ = bench_modules
    monkeypatch.syspath_prepend(str(SESSIONBENCH))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    w = write_small(gen, name, tmp_path)
    bench = run.Bench(w, 1, tmp_path)
    bench.setup()
    tracer = tracing.Tracer()
    for i in range(len(bench.theorems)):
        assert bench.session(i, tracer)["problems"] == [], (name, i)
    expected = {span for _, _, span in tracing.PROGRAM_CALLS} | {
        tracing.SESSION, "llm.complete", "compiler.check", "embeddings.embed"}
    assert expected - set(tracer.names) == set()


def test_a_duplicate_pair_fails_the_set_up_in_recheck(bench_modules,
                                                      tmp_path):
    gen, _ = bench_modules
    write_small(gen, "repair_version", tmp_path)
    path = tmp_path / "pairs.jsonl"
    first = path.read_text(encoding="utf-8").splitlines(keepends=True)[0]
    path.write_text(first * 2, encoding="utf-8")
    registry = ToolchainRegistry.from_file(tmp_path / "registry.json")
    bank = load_bank(tmp_path, registry)
    with pytest.raises(SchemaError) as err:
        recheck(bank)
    assert (err.value.field, err.value.line) == ("id", 2)
