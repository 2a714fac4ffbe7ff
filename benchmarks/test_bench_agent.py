"""Layer microbenchmark for the agent's free repair step.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_agent.py

``test_revert_flagged`` times ``agent._revert_flagged`` on a draft of a
45-line and of a 300-line proof, the sizes of a ``repair_version`` and of
a long ``longproof_compile`` proof. The draft is what the session
benchmark's faulty refactorer writes: it deletes a step's three lines and
puts back an old lemma name on a line further down, which the compiler
flags. The step runs only after a compile has failed.
"""

from __future__ import annotations

import random

import pytest

from prooftidy.agent import _revert_flagged
from prooftidy.compiler import Diagnostic

NAMES = ("Nat.add_comm", "mul_le_mul", "sq_nonneg", "Finset.sum_le_sum",
         "abs_sub_lt_iff", "pow_two")


def _draft(n_lines: int) -> tuple[str, str, list[Diagnostic], str]:
    """A proof of ``n_lines`` lines, its draft, the draft's diagnostics and
    the draft with its flagged line put back."""
    rng = random.Random(n_lines)
    lines = ["theorem t (a b : ℕ) (h : a ≤ b) : a * a ≤ b * b := by"]
    for j in range(1, n_lines - 1):
        name = rng.choice(NAMES)
        lines.append(rng.choice((
            f"  have h{j} : a * b ≤ a * b + {j} := by rw [{name}]",
            f"  calc a * a ≤ a * b + {j} := by exact {name} h",
            f"  simp only [{name}, h{j}] at h ⊢",
            f"  nlinarith [{name} a, sq_nonneg (a - {j})]",
        )))
    lines.append("  exact Nat.mul_le_mul h h")
    at = n_lines // 3
    kept = lines[:at] + lines[at + 3:]
    renamed = 2 * len(kept) // 3
    name = next(n for n in NAMES if n in kept[renamed])
    draft = list(kept)
    draft[renamed] = draft[renamed].replace(name, name + "_old")
    diagnostics = [Diagnostic(renamed + 1, 4, "error",
                              f"unknown identifier '{name}_old'")]
    return "\n".join(lines), "\n".join(draft), diagnostics, "\n".join(kept)


@pytest.mark.parametrize("n_lines", [45, 300])
def test_revert_flagged(benchmark, n_lines):
    proof, draft, diagnostics, reverted = _draft(n_lines)
    assert benchmark(_revert_flagged, draft, proof, diagnostics) == reverted
