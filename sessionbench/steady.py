#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload over seeds 1-10.

    python3 sessionbench/steady.py

Runs each workload in ``BENCHMARK.json`` once per seed, one run at a time,
and then does it all again. For every end-to-end metric and each set it
prints the median, the quartiles and the spread (interquartile distance
over the median) next to the metric's bound, marking spreads at or above a
third of the bound, and how far the second set's median moved from the
first's. It also confirms that every count metric repeats exactly for each
seed and that every run reports the same share of failed sessions. Exits 1
if any of these checks fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2

#: End-to-end metrics that count work rather than time it.
COUNT_METRICS = ("llm_calls_per_session", "prompt_kchars_per_session",
                 "compiles_per_session", "embed_texts_per_session",
                 "tokens_saved_per_session", "tokens_saved_per_llm_call")


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for n in range(SETS):
            results = []
            for seed in SEEDS:
                r = run(workload, seed, spec["run_seconds"])
                m = r["metrics"]
                print(f"{workload} set {n + 1} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"p50={m['session_ms_p50']['value']:.1f}ms "
                      f"setup={m['setup_s']['value']:.3f}s", flush=True)
                results.append(r)
            sets.append(results)
        runs = [r for results in sets for r in results]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            print(f"  failed shares {sorted(shares)}; every run correct: "
                  f"{all(r['correct'] for r in runs)}")
            ok = False
        print(f"{'metric':28} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'worse':>7}")
        for metric in spec["end_to_end"]:
            medians = []
            for n, results in enumerate(sets):
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians.append(median)
                spread = (q3 - q1) / median
                steady = spread < metric["bound"] / 3
                worse = worse_by(metric, medians[0], median)
                ok &= steady and worse <= metric["bound"]
                print(f"{metric['name']:28} {n + 1:3} {median:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {spread:8.4f} {metric['bound']:6.2f} {worse:7.3f}"
                      f"{'' if steady else '  UNSTEADY'}"
                      f"{'' if worse <= metric['bound'] else '  WORSE'}")
        repeated = all(a["metrics"][name] == b["metrics"][name]
                       for a, b in zip(*sets) for name in COUNT_METRICS)
        ok &= repeated
        print(f"  count metrics repeat exactly for every seed: {repeated}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
