#!/usr/bin/env python3
"""Compare two outputs of ``benchmarks/session_digests.py``.

    python3 benchmarks/session_digests.py --root ../parent --seed 1 > old.json
    python3 benchmarks/session_digests.py --root . --seed 1 > new.json
    python3 benchmarks/compare_digests.py old.json new.json

Prints one JSON object: workload name -> ``differing``, the indices of the
sessions whose entries are not equal (a session that only one side has
counts), and ``old`` and ``new``, each side's means per session of tokens
saved, LLM calls, LLM calls by role and compiles, with its number of
sessions and of sessions that raised. Tokens saved are averaged over the
sessions that did not raise; a role absent from an entry counts as zero
calls.
"""

import argparse
import json
import sys
from pathlib import Path


def _mean(values) -> float | None:
    values = list(values)
    return round(sum(values) / len(values), 6) if values else None


def summary(entries: list[dict]) -> dict:
    """One side's means over its entries for one workload."""
    roles = sorted({role for e in entries for role in e["calls_by_role"]})
    return {
        "sessions": len(entries),
        "errors": sum("error" in e for e in entries),
        "tokens_saved": _mean(e["tokens_saved"] for e in entries
                              if "error" not in e),
        "llm_calls": _mean(e["llm_calls"] for e in entries),
        "calls_by_role": {role: _mean(e["calls_by_role"].get(role, 0)
                                      for e in entries) for role in roles},
        "compiles": _mean(e["compiles"] for e in entries),
    }


def compare(old: dict, new: dict) -> dict:
    """Per workload of either side, the differing sessions and both sides'
    means."""
    report = {}
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, []), new.get(name, [])
        report[name] = {
            "differing": [i for i in range(max(len(a), len(b)))
                          if i >= len(a) or i >= len(b) or a[i] != b[i]],
            "old": summary(a),
            "new": summary(b),
        }
    return report


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="session_digests.py output")
    ap.add_argument("new", type=Path, help="session_digests.py output")
    args = ap.parse_args(argv)
    old, new = (json.loads(p.read_text()) for p in (args.old, args.new))
    print(json.dumps(compare(old, new), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
