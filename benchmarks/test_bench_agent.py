"""Layer microbenchmarks for the agent's two free repair steps.

Run from the repository root; tier-1 ``testpaths`` do not collect them:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_agent.py

Both time a draft of a 45-line and of a 300-line proof, the sizes of a
``repair_version`` and of a long ``longproof_compile`` proof. The draft is
what the session benchmark's faulty refactorer writes: it deletes a
step's three lines and puts back an old lemma name on a line further
down, outside the step.

``test_splice_step`` times ``agent._splice_step``, which every draft
passes before any compile: on the draft as written, whose rename it puts
back (``put_back``), and on the draft without the rename, which it
returns as it is (``fast_path``), as it does almost every draft of the
``bank10k_length`` and ``longproof_compile`` workloads. The fast path
splits only the chain: it matches the draft's text against the chain's
lines above and below the steps and, for a run, finds the lines between
two steps with one ``str.find``. The put-back splits the draft too and
walks ``agent._aligned``, whose ``difflib`` aligns only the lines between
the common head, which stops at the topmost step, and the common tail,
which stops at the rename. Each is timed for one step and for a run of
two (``two_steps``), whose draft also deletes the three lines of a
second step, further down, in the same call, as a ``longproof_compile``
plan with more steps than calls left asks.

``test_revert_flagged`` times ``agent._revert_flagged`` on the draft as
written, whose renamed line the compiler flags. The session passes the
failing check's ``errors()``, so the draft's one diagnostic is an error.
It too walks ``agent._aligned``, with no cap on the head or the tail, so
``difflib`` aligns only the lines from the step's deletion to the rename.
The step runs only after a compile has failed; in a session the splice
has already put back a rename outside the step, so the revert meets only
renames within a step's lines.
"""

from __future__ import annotations

import random

import pytest

from prooftidy.agent import PlanStep, _revert_flagged, _splice_step
from prooftidy.compiler import Diagnostic

NAMES = ("Nat.add_comm", "mul_le_mul", "sq_nonneg", "Finset.sum_le_sum",
         "abs_sub_lt_iff", "pow_two")


def _draft(n_lines: int, n_steps: int = 1
           ) -> tuple[str, str, list[Diagnostic], tuple[str, list[int]]]:
    """A proof of ``n_lines`` lines, its draft, the draft's errors and
    the draft with its flagged line put back, with that line's number;
    the draft's steps (``_steps``) are the three lines after line
    ``n_lines // 3`` and, for a second one, after line ``n_lines // 2``."""
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
    deleted = {at + i for at in _starts(n_lines, n_steps) for i in range(3)}
    kept = [line for i, line in enumerate(lines) if i not in deleted]
    renamed = 2 * len(kept) // 3
    name = next(n for n in NAMES if n in kept[renamed])
    draft = list(kept)
    draft[renamed] = draft[renamed].replace(name, name + "_old")
    errors = [Diagnostic(renamed + 1, 4, "error",
                         f"unknown identifier '{name}_old'")]
    return ("\n".join(lines), "\n".join(draft), errors,
            ("\n".join(kept), [renamed + 1]))


@pytest.mark.parametrize("n_lines", [45, 300])
def test_revert_flagged(benchmark, n_lines):
    proof, draft, errors, reverted = _draft(n_lines)
    assert benchmark(_revert_flagged, draft, proof, errors) == reverted


def _starts(n_lines: int, n_steps: int) -> list[int]:
    """The line after which each step of ``_draft`` starts."""
    return [n_lines // 3, n_lines // 2][:n_steps]


def _steps(n_lines: int, n_steps: int) -> list[PlanStep]:
    """The steps of ``_draft(n_lines, n_steps)``: the lines it deletes."""
    return [PlanStep(at + 1, at + 3, "drop", "high", "")
            for at in _starts(n_lines, n_steps)]


@pytest.mark.parametrize("n_steps", [1, 2], ids=["one_step", "two_steps"])
@pytest.mark.parametrize("path", ["fast_path", "put_back"])
@pytest.mark.parametrize("n_lines", [45, 300])
def test_splice_step(benchmark, n_lines, path, n_steps):
    proof, draft, _, (kept, [renamed]) = _draft(n_lines, n_steps)
    steps = _steps(n_lines, n_steps)
    if path == "fast_path":
        assert benchmark(_splice_step, proof, kept, steps) == (
            kept, None, False)
    else:
        # The renamed line lies below the steps' deleted lines.
        assert benchmark(_splice_step, proof, draft, steps) == (
            kept, [renamed + 3 * n_steps], False)
