#!/usr/bin/env python3
"""Session benchmark: scripted ``run_session`` calls, back to back.

Run from the repository root:

    python3 sessionbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop on one thread: each session starts when the
previous one has returned. The generator (``gen.py``) writes the bank and
the theorems for the workload and seed; the program receives only those
files. A round runs every generated theorem once.

The work in a run is fixed, so every metric of a seed compares like with
like: each workload is sized so that its round takes about ``--seconds``
on a two-core VM, and the run neither stretches nor cuts it to fit.
Before each session and each set-up the collector runs outside the timed
span, so the collector's work inside a session does not depend on what
ran before it.

``--trace 0`` runs one round and prints the end-to-end metrics of
``BENCHMARK.json``. Their times are at reference speed. A shared host
changes speed by half within minutes, for the whole process (CPU time
tracks wall time). So a fixed probe of interpreter work, ``probe``, runs
just before and just after each timed session and set-up, and the wall
time is scaled by ``REFERENCE_S`` over the probes' mean (for a set-up,
each step by the probes on either side of it). Set-up (``load_bank``,
``recheck``, ``StrategyIndex.build``) runs before the round and after
each quarter of it; ``setup_s`` is the median of these five.

``--trace 1`` runs one round in which each session runs untraced and then
traced, back to back, and prints the per-layer metrics. Their times are
wall times; the tracing overhead is the median of the paired differences.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

import os
import sys

# Pinned before numpy loads: one BLAS thread, and a fixed string hash order.
_PINNED = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED.items()):
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **_PINNED})

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from gen import WORKLOADS  # noqa: E402
from world import NATIVE  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seconds of ``reference_work`` on a quiet two-core 2.1 GHz Xeon VM. Times
#: at reference speed are wall times scaled by this over the probe's time.
REFERENCE_S = 1.6e-3
RERUN_EVERY = 20       # sessions re-run to compare to_json byte for byte
RETRIEVE_EVERY = 20    # theorems whose windows check retrieve by brute force

SKIP_REASONS = {"StepFailed": "StepFailed",
                "StatementMutation": "StatementMutation",
                "no compiling candidate": "no_compiling_candidate",
                "candidate not shorter": "candidate_not_shorter"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="prooftidy session benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length the workloads are sized for; the work is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


_REFERENCE_DATA = [(f"k{i % 97}", str(i * 7919 % 10007)) for i in range(3000)]


def reference_work() -> int:
    """Fixed interpreter work: dict updates, string building, a keyed sort."""
    d: dict[str, str] = {}
    for k, v in _REFERENCE_DATA:
        d[k] = d.get(k, "")[-8:] + v
    ordered = sorted(_REFERENCE_DATA, key=lambda kv: (kv[1], kv[0]))
    return len("".join(v for _, v in ordered[:500])) + len(d)


def probe() -> float:
    """The host's speed now: seconds for ``reference_work``, best of two."""
    times = []
    for _ in range(2):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return min(times)


def p90(values):
    return statistics.quantiles(values, n=10)[8]


class Bench:
    def __init__(self, workload, seed: int, data: Path):
        from prooftidy.agent import AgentConfig
        from prooftidy.bank import ToolchainRegistry
        from prooftidy.retrieval import ObjectiveMode, ObjectiveSpec
        from checks import SessionChecker, load_reference_length
        from ports import OracleCompiler

        self.w = workload
        self.seed = seed
        self.data = data
        self.registry = ToolchainRegistry.from_file(data / "registry.json")
        with (data / "theorems.jsonl").open(encoding="utf-8") as fh:
            self.theorems = [json.loads(line) for line in fh]
        mode = ObjectiveMode(workload.objective)
        objective = (ObjectiveSpec(mode=mode, target_version=workload.target)
                     if mode == ObjectiveMode.VERSION else ObjectiveSpec(mode=mode))
        self.config = AgentConfig(budget=workload.budget, objective=objective,
                                  toolchain_version=workload.target)
        self.oracle = OracleCompiler(self.theorems, NATIVE)
        self.checker = SessionChecker(load_reference_length(ROOT),
                                      OracleCompiler(self.theorems, NATIVE),
                                      workload.budget, workload.target)
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.bank = self.index = None
        self.setups: list[dict] = []

    def setup(self) -> None:
        """Load the bank, recheck it and build the index; time each step."""
        from prooftidy.bank import load_bank, recheck
        from prooftidy.retrieval import StrategyIndex
        from ports import CountingEmbedder

        self.bank = self.index = None
        gc.collect()
        probes = [probe()]
        t0 = perf_counter()
        self.bank = load_bank(self.data, self.registry)
        t1 = perf_counter()
        probes.append(probe())
        t2 = perf_counter()
        discrepancies = recheck(self.bank)
        t3 = perf_counter()
        probes.append(probe())
        t4 = perf_counter()
        self.index = StrategyIndex.build(self.bank, CountingEmbedder())
        t5 = perf_counter()
        probes.append(probe())
        steps = {"load": t1 - t0, "recheck": t3 - t2, "build": t5 - t4}
        # Each step at reference speed, scaled by the probes on either side.
        self.setups.append({**steps, "reference_s": sum(
            seconds * 2 * REFERENCE_S / (probes[i] + probes[i + 1])
            for i, seconds in enumerate(steps.values()))})
        if discrepancies:
            self.problems.append(f"recheck found {len(discrepancies)} discrepancies")

    def session(self, i: int, tracer=None) -> dict:
        """Run theorem ``i`` once; return its counts, time and problems."""
        from contextlib import nullcontext

        from prooftidy.agent import run_session
        from ports import Responder

        theorem = self.theorems[i]
        llm = Responder(self.seed, self.w.faults)
        embedder = self.index.embedder
        embedder.texts = 0
        checks0, failures0 = self.oracle.checks, self.oracle.failures
        if tracer is None:
            traced, call = nullcontext(), run_session
        else:
            from tracing import SESSION
            traced = tracer.session(llm, self.oracle, embedder)
            call = tracer.wrap(SESSION, run_session)
        gc.collect()
        before = probe()
        with traced:
            start = perf_counter()
            try:
                result = call(theorem["proof"], "", self.config, self.bank,
                              self.index, llm, self.oracle)
                error = None
            except Exception as exc:  # a session that raises counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        after = probe()
        row = {"seconds": seconds,
               "reference_s": seconds * 2 * REFERENCE_S / (before + after),
               "calls": llm.calls,
               "calls_by_role": dict(llm.calls_by_role),
               "chars_by_role": dict(llm.chars_by_role),
               "transport_errors": llm.transport_errors,
               "compiles": self.oracle.checks - checks0,
               "compile_failures": self.oracle.failures - failures0,
               "embeds": embedder.texts, "saved": 0, "events": Counter()}
        if result is None:
            row["problems"] = [error]
            return row
        row["saved"] = result.initial_length - result.final_length
        for e in result.trace.events:
            row["events"][e.kind] += 1
            if e.kind == "step_skipped":
                row["events"]["skip:" + SKIP_REASONS[e.detail["reason"]]] += 1
        row["events"]["end:" + result.termination.value] += 1
        row["problems"] = self.checker(theorem, result, llm.calls)
        digest = hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            row["problems"].append("to_json differs from an earlier run")
        return row

    def round(self, session) -> list:
        """``session(i)`` for every theorem, with a set-up after each quarter:
        set-ups seconds apart are not all caught by one slow spell of the
        host."""
        n = len(self.theorems)
        rows = []
        for q in range(4):
            rows += [session(i) for i in range(q * n // 4, (q + 1) * n // 4)]
            self.setup()
        return rows

    def rerun_samples(self) -> None:
        for i in range(0, len(self.theorems), RERUN_EVERY):
            row = self.session(i)
            if row["problems"]:
                self.problems.append(f"re-run of session {i}: {row['problems']}")

    def check_retrieval(self) -> None:
        from prooftidy.embeddings import MockEmbedder
        from prooftidy.retrieval import retrieve
        from checks import BruteForceRetrieval, retrieval_matches

        with (self.data / "strategies.jsonl").open(encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        embedder = MockEmbedder()
        brute = BruteForceRetrieval(records, embedder)
        for theorem in self.theorems[::RETRIEVE_EVERY]:
            lines = theorem["proof"].split("\n")
            windows = ["\n".join(lines[j:j + 5]) for j in range(0, len(lines), 5)]
            for query in embedder.embed(windows[:4] + [theorem["proof"]]):
                got = retrieve(self.index, self.bank, query, self.config.objective)
                if not retrieval_matches(got, brute(query, self.config.objective)):
                    self.problems.append(f"retrieve differs from brute force on "
                                         f"{theorem['id']}")


def end_to_end(rows: list[dict], setups: list[dict]) -> dict:
    n = len(rows)
    seconds = [r["reference_s"] for r in rows]
    calls = sum(r["calls"] for r in rows)
    saved = sum(r["saved"] for r in rows)
    return {
        "sessions_per_s": len(seconds) / sum(seconds),
        "session_ms_p50": statistics.median(seconds) * 1e3,
        "session_ms_p90": p90(seconds) * 1e3,
        "setup_s": statistics.median(s["reference_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "llm_calls_per_session": calls / n,
        "prompt_kchars_per_session":
            sum(sum(r["chars_by_role"].values()) for r in rows) / 1e3 / n,
        "compiles_per_session": sum(r["compiles"] for r in rows) / n,
        "embed_texts_per_session": sum(r["embeds"] for r in rows) / n,
        "tokens_saved_per_session": saved / n,
        "tokens_saved_per_llm_call": saved / calls,
    }


def per_layer(untraced, traced, setups, tracer) -> dict:
    from ports import ROLES
    from prooftidy.agent import Termination

    n = len(traced)
    by_layer, by_name = tracer.self_times()
    spans = Counter(tracer.names)
    counts = tracer.counts
    events = Counter()
    calls = Counter()
    chars = Counter()
    for r in traced:
        events.update(r["events"])
        calls.update(r["calls_by_role"])
        chars.update(r["chars_by_role"])
    ms = lambda name: by_name.get(name, 0.0) * 1e3 / n  # noqa: E731
    return {
        "tokenizer.proof_length.calls": spans["tokenizer.proof_length"] / n,
        "tokenizer.proof_length.ms": ms("tokenizer.proof_length"),
        "tokenizer.statement_check.ms": ms("tokenizer.statement_check"),
        "tokenizer.segment.ms": ms("tokenizer.segment"),
        "tokenizer.segment.spans": counts["tokenizer.segment.spans"] / n,
        "embeddings.texts": sum(r["embeds"] for r in traced) / n,
        "embeddings.repeat_texts": counts["embeddings.repeat_texts"] / n,
        "embeddings.embed.ms": ms("embeddings.embed"),
        "embeddings.index_build_s": statistics.median(s["build"] for s in setups),
        "retrieval.retrieve.calls": spans["retrieval.retrieve"] / n,
        "retrieval.retrieve.ms": ms("retrieval.retrieve"),
        "retrieval.top_k.ms_per_query":
            by_name.get("retrieval.top_k", 0.0) * 1e3 / max(1, spans["retrieval.top_k"]),
        "retrieval.kept_after_filter":
            counts["retrieval.kept"] / max(1, spans["retrieval.retrieve"]),
        "retrieval.empty_queries": counts["retrieval.empty_queries"] / n,
        "bank.load_s": statistics.median(s["load"] for s in setups),
        "bank.recheck_s": statistics.median(s["recheck"] for s in setups),
        "prompts.render.calls": spans["prompts.render"] / n,
        "prompts.render.ms": ms("prompts.render"),
        "prompts.parse.ms": ms("prompts.parse"),
        **{f"llm.calls.{role}": calls[role] / n for role in ROLES},
        "llm.transport_retries": sum(r["transport_errors"] for r in traced) / n,
        **{f"llm.prompt_kchars.{role}": chars[role] / 1e3 / n
           for role in ("planner", "refactor", "debugger")},
        "llm.port_ms": ms("llm.complete"),
        "compiler.checks.success":
            sum(r["compiles"] - r["compile_failures"] for r in traced) / n,
        "compiler.checks.failure": sum(r["compile_failures"] for r in traced) / n,
        "compiler.repeat_checks": counts["compiler.repeat_checks"] / n,
        "compiler.port_ms": ms("compiler.check"),
        "agent.self_ms": by_layer.get("agent", 0.0) * 1e3 / n,
        "agent.rounds": events["retrieval"] / n,
        "agent.adoptions": events["adoption"] / n,
        "agent.debug_rounds": events["debug_round"] / n,
        **{f"agent.steps_skipped.{name}": events["skip:" + name] / n
           for name in SKIP_REASONS.values()},
        **{f"agent.termination.{t.value}": events["end:" + t.value] / n
           for t in Termination},
        "agent.useful_call_ratio":
            events["adoption"] / max(1, sum(r["calls"] for r in traced)),
        "trace.session_ms_p50": statistics.median(r["seconds"] for r in traced) * 1e3,
        "trace.overhead_ms": statistics.median(
            t["seconds"] - u["seconds"] for u, t in zip(untraced, traced)) * 1e3,
    }


def main(argv) -> int:
    args = parse_args(argv)
    if not ((ROOT / "src" / "prooftidy" / "__init__.py").is_file()
            and (ROOT / "tests" / "reference_metric.py").is_file()):
        print(f"no prooftidy sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    w = WORKLOADS[args.workload]
    data = HERE / "data" / f"{w.name}-{args.seed}"
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", w.name,
                    "--seed", str(args.seed), "--out", str(data)],
                   check=True, timeout=170)
    try:
        return measure(args, w, data, spec)
    finally:
        shutil.rmtree(data, ignore_errors=True)


def measure(args, w, data: Path, spec: dict) -> int:
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bench = Bench(w, args.seed, data)
    bench.setup()
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        pairs = bench.round(lambda i: (bench.session(i), bench.session(i, tracer)))
        untraced, traced = (list(runs) for runs in zip(*pairs))
        metrics = per_layer(untraced, traced, bench.setups, tracer)
        rows = untraced + traced
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{w.name}-{args.seed}.tsv")
    else:
        rows = bench.round(bench.session)
        metrics = end_to_end(rows, bench.setups)
    bench.rerun_samples()
    bench.check_retrieval()

    failed = sum(1 for r in rows if r["problems"])
    for r in rows:
        for problem in r["problems"]:
            print(f"session failed: {problem}", file=sys.stderr)
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise SystemExit(f"metrics not computed: {sorted(missing)}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
