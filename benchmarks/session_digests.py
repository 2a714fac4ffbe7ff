#!/usr/bin/env python3
"""Per-session digests of every benchmark theorem, for byte-equivalence checks.

Run from the repository root:

    python3 benchmarks/session_digests.py --root CHECKOUT --seed N > out.json

Imports ``prooftidy`` from ``CHECKOUT/src`` and everything else from the
``sessionbench/`` beside this script, so two checkouts compare their
``src/`` alone under one benchmark. For each workload, ``sessionbench/gen.py``
writes the inputs into a temporary directory; one ``run.Bench`` set-up
loads, rechecks and indexes the bank; then every theorem runs once through
``run_session`` with the benchmark's ``Responder`` and ``OracleCompiler``.
The environment is pinned as ``sessionbench/run.py`` pins it.

Prints one JSON object: workload name -> one entry per theorem, in order,
each the SHA-256 of the session's ``to_json()``, its tokens saved (initial
minus final length), its LLM calls, those calls by role (``Responder``'s
``calls_by_role``) and its compiles. A session that raises
has ``"error"`` in place of the digest and the tokens saved.
Two runs agree byte for byte exactly when the sessions do:

    cmp <(python3 benchmarks/session_digests.py --root . --seed 1) \\
        <(python3 benchmarks/session_digests.py --root ../parent --seed 1)
"""

import os
import sys
from pathlib import Path

SESSIONBENCH = Path(__file__).resolve().parent.parent / "sessionbench"
sys.path.insert(0, str(SESSIONBENCH))

import run  # noqa: E402

if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in run._PINNED.items()):
    os.execve(sys.executable, [sys.executable] + sys.argv,
              {**os.environ, **run._PINNED})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402


def digests(workload, seed: int) -> list[dict]:
    """One entry per theorem of ``workload`` at ``seed``."""
    from gen import write
    from ports import Responder
    from prooftidy.agent import run_session

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        write(workload, seed, data)
        bench = run.Bench(workload, seed, data)
        bench.setup()
        entries = []
        for theorem in bench.theorems:
            llm = Responder(seed, workload.faults)
            checks = bench.oracle.checks
            try:
                result = run_session(theorem["proof"], "", bench.config,
                                     bench.bank, bench.index, llm, bench.oracle)
                entry = {
                    "sha256": hashlib.sha256(
                        result.to_json().encode("utf-8")).hexdigest(),
                    "tokens_saved": result.initial_length - result.final_length,
                }
            except Exception as exc:
                entry = {"error": f"{type(exc).__name__}: {exc}"}
            entry.update(llm_calls=llm.calls,
                         calls_by_role=dict(sorted(llm.calls_by_role.items())),
                         compiles=bench.oracle.checks - checks)
            entries.append(entry)
    return entries


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path,
                    help="checkout whose src/ is under test")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    src = args.root.resolve() / "src"
    if not (src / "prooftidy" / "__init__.py").is_file():
        print(f"no prooftidy sources under {args.root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    print(json.dumps({name: digests(w, args.seed)
                      for name, w in sorted(run.WORKLOADS.items())}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
