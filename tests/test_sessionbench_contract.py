"""The session benchmark's contract with the program.

The benchmark under ``sessionbench/`` calls the program's API from its own
files, which tier-1 ``testpaths`` do not collect. These tests run its own
tests, and its set-up on a small bank of each workload, so that a change to
an API the benchmark calls fails here.
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


def write_small(gen, name: str, out: Path) -> None:
    """The workload's files at the size of the benchmark's own tests."""
    w = dataclasses.replace(gen.WORKLOADS[name], sessions=6, strategies=25)
    gen.write(w, 1, out)


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
