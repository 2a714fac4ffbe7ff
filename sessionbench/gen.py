"""Seeded input generator: theorems with planted removable lines, and a
strategy bank in the program's JSONL format.

Run as ``python3 sessionbench/gen.py --workload NAME --seed N --out DIR``.
The same workload and seed always give byte-identical files:

- ``registry.json``: the toolchain registry;
- ``strategies.jsonl`` and ``pairs.jsonl``: the bank;
- ``theorems.jsonl``: one record per session with the statement, the
  input proof, its essential lines (what the oracle compiler requires) and
  the minimal proof that keeps only those lines.

Sizes are laid out on a fixed ladder and removable kinds are allotted in
fixed proportions, so the seed changes the text of the inputs but hardly
their shape; that keeps per-session counts steady from seed to seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from world import (KIND_PHRASES, NATIVE, NEW_TO_OLD, NOOP_LINES, VERSIONS,
                   names_on, removable_kinds)


@dataclass(frozen=True)
class Workload:
    name: str
    style: str                    # competition | research | mid
    body_lines: tuple[int, int]   # inclusive range of proof body lines
    removable_share: float        # planted removable lines / body lines
    comment_share: float          # comment lines / body lines
    sessions: int                 # distinct sessions in one round
    strategies: int
    pairs_per_strategy: int
    objective: str                # length | compile_time | version
    target: str                   # toolchain the proofs must build on
    budget: int                   # LLM calls per session
    faults: dict                  # responder fault rates, see ports.Responder


WORKLOADS = {
    w.name: w for w in (
        Workload("bank10k_length", "competition", (5, 25), 0.55, 0.0,
                 sessions=100, strategies=10_000, pairs_per_strategy=1,
                 objective="length", target=NATIVE, budget=8, faults={}),
        Workload("longproof_compile", "research", (80, 300), 0.14, 0.15,
                 sessions=100, strategies=200, pairs_per_strategy=15,
                 objective="compile_time", target=NATIVE, budget=8,
                 faults={}),
        Workload("repair_version", "mid", (30, 60), 0.4, 0.05,
                 sessions=200, strategies=1_000, pairs_per_strategy=3,
                 objective="version", target=VERSIONS[-1], budget=24,
                 faults={"fails_on_target": 0.35, "malformed_plan": 0.2,
                         "bogus_step": 0.2, "statement_change": 0.1,
                         "no_fence": 0.05, "transport": 0.08,
                         "debug_unfixed": 0.3}),
    )
}

#: Share of each removable kind among planted lines, per proof style.
KIND_WEIGHTS = {
    "competition": {"unused_have": 0.35, "show": 0.25, "duplicate": 0.15,
                    "noop": 0.15, "clear": 0.10},
    "research": {"unused_have": 0.25, "show": 0.2, "duplicate": 0.2,
                 "noop": 0.25, "clear": 0.10},
    "mid": {"unused_have": 0.3, "show": 0.2, "duplicate": 0.2,
            "noop": 0.2, "clear": 0.10},
}

VARS = ("a", "b", "c", "n", "m", "k", "x", "y")
WORDS = ("bound", "case", "estimate", "goal", "sum", "term", "factor",
         "index", "limit", "parity", "order", "range", "square", "product")


def allot(total: int, weights: dict[str, float]) -> list[str]:
    """``total`` labels split by ``weights`` with largest remainders."""
    raw = {k: total * w for k, w in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    rest = sorted(raw, key=lambda k: (counts[k] - raw[k], k))
    for k in rest[:total - sum(counts.values())]:
        counts[k] += 1
    return [k for k in weights for _ in range(counts[k])]


class TheoremMaker:
    def __init__(self, rng: random.Random, names: list[str],
                 renamed: list[str]):
        self.rng = rng
        self.names = names
        self.renamed = renamed   # new names the repair workload must use

    def essential(self, count: int, a: str, b: str, c: str) -> list[str]:
        """``count`` distinct lines the oracle requires, in order.

        A ``have hk…`` gets a later line that uses it, so the responder
        never takes it for an unused fact.
        """
        rng = self.rng
        nm = lambda: rng.choice(self.names)  # noqa: E731
        lines: list[str] = []
        pending: tuple[int, str] | None = None   # (due index, use line)
        j = 0
        while len(lines) < count:
            j += 1
            h = rng.choice(("h0", "h1"))
            k = rng.randint(1, 9)
            if pending and pending[0] <= len(lines):
                line, pending = pending[1], None
            elif pending is None and count - len(lines) > 3 and rng.random() < 0.12:
                line = f"have hk{j} : {a} * {b} ≤ {a} * {b} + {k} := by positivity"
                pending = (len(lines) + 2, f"linarith [hk{j}, {nm()} {h}]")
            else:
                line = rng.choice((
                    f"intro x{j}",
                    f"simp [{nm()}, {nm()}]",
                    f"rw [{nm()}] at {h}",
                    f"exact {nm()} {h}",
                    f"nlinarith [{nm()} ({a} - {b}), {nm()} {c}]",
                    f"apply {nm()}",
                    f"norm_num [{nm()}] at {h}",
                    f"obtain ⟨w{j}, hw{j}⟩ := {h}",
                    f"refine ⟨_, {nm()} {h}⟩",
                    f"calc {a} * {c} ≤ {b} * {c} + {k} := {nm()} {h}",
                    "omega", "linarith", "positivity", "constructor",
                ))
                if line in lines:
                    continue
            lines.append(line)
        for name in rng.sample(self.renamed, min(2, len(self.renamed))):
            lines.insert(rng.randint(0, len(lines)),
                         f"rw [{name}] at {rng.choice(('h0', 'h1'))}")
        return lines

    def removable(self, kind: str, j: int, a: str, b: str, c: str,
                  prop: str) -> str:
        rng = self.rng
        k, m = rng.randint(1, 9), rng.randint(1, 9)
        if kind == "unused_have":
            return (f"have haux{j} : ({a} + {k}) * ({b} + {m}) = "
                    f"{a} * {b} + {m} * {a} + {k} * {b} + {k * m} := by ring")
        if kind == "show":
            return f"show {prop}"
        if kind == "clear":
            return f"clear {rng.choice(('h0', 'h1'))}"
        return rng.choice(NOOP_LINES)

    def comment(self, j: int) -> list[str]:
        rng = self.rng
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 7)))
        if rng.random() < 0.7:
            return [f"-- step {j}: {words}"]
        more = " ".join(rng.choice(WORDS) for _ in range(5))
        return [f"/- note {j}: {words}", f"   {more}", "-/"]

    def theorem(self, tag: str, n_body: int, removable_share: float,
                comment_share: float, style: str) -> dict:
        rng = self.rng
        a, b, c = rng.sample(VARS, 3)
        k = rng.randint(1, 20)
        prop = f"{a} * {c} + {k} ≤ {b} * {c} + {k} + {a}"
        statement = (f"theorem {tag} ({a} {b} {c} : ℕ) (h0 : 0 < {a}) "
                     f"(h1 : {a} ≤ {b}) : {prop} :=")
        n_rem = round(n_body * removable_share)
        n_com = round(n_body * comment_share)
        n_ess = max(2, n_body - n_rem - n_com - min(2, len(self.renamed)))
        indent = "  "
        while True:
            ess = self.essential(n_ess, a, b, c)
            if len(set(ess)) != len(ess):
                continue
            kinds = allot(n_rem, KIND_WEIGHTS[style])
            rng.shuffle(kinds)
            slots: list[list[tuple[str, str]]] = [[] for _ in range(len(ess) + 1)]
            for j, kind in enumerate(kinds):
                if kind == "duplicate":
                    g = rng.randint(1, len(ess))
                    slots[g].insert(0, ("rem", ess[g - 1]))
                else:
                    slots[rng.randint(0, len(ess))].append(
                        ("rem", self.removable(kind, j, a, b, c, prop)))
            for j in range(n_com):
                g = rng.randint(0, len(ess))
                slots[g].append(("com", "\n".join(self.comment(j))))
            body: list[tuple[str, str]] = list(slots[0])
            for line, extra in zip(ess, slots[1:]):
                body.append(("ess", line))
                body.extend(extra)
            lines, planted = [], set()
            for role, text in body:
                for part in text.split("\n"):
                    if role == "rem":
                        planted.add(len(lines))
                    lines.append(part if part == "-/" or part.startswith("   ")
                                 else indent + part)
            if set(removable_kinds(lines)) == planted:
                break
        keep = [line for i, line in enumerate(lines) if i not in planted]
        return {
            "id": tag,
            "statement": statement,
            "proof": statement + " by\n" + "\n".join(lines),
            "essential": ess,
            "minimal_proof": statement + " by\n" + "\n".join(keep),
        }


def theorems(w: Workload, seed: int) -> list[dict]:
    rng = random.Random(f"theorems:{w.name}:{seed}")
    names = sorted(names_on(w.target))
    renamed = sorted(n for n in names if n in NEW_TO_OLD) if w.style == "mid" else []
    names = [n for n in names if n not in NEW_TO_OLD]
    maker = TheoremMaker(rng, names, renamed)
    lo, hi = w.body_lines
    ladder = [lo + round((hi - lo) * (i + 0.5) / w.sessions)
              for i in range(w.sessions)]
    rng.shuffle(ladder)
    return [maker.theorem(f"bench_{seed}_{i}", n, w.removable_share,
                          w.comment_share, w.style)
            for i, n in enumerate(ladder)]


# --- bank ---------------------------------------------------------------------

def _content_id(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()[:12]


def bank_records(w: Workload, seed: int) -> tuple[list[dict], list[dict]]:
    """Strategies and member pairs; stored metadata agrees with the members."""
    rng = random.Random(f"bank:{w.name}:{seed}")
    kinds = allot(w.strategies, {k: 1 / len(KIND_PHRASES) for k in KIND_PHRASES})
    rng.shuffle(kinds)
    # Every kind gets the same ladder of compile reductions and of last
    # compatible toolchains, so that no kind wins the rerank or the version
    # filter by the luck of the seed.
    ladders: dict[str, tuple[list[float], list[int]]] = {}
    for kind in KIND_PHRASES:
        n = kinds.count(kind)
        centers = [0.05 + 0.8 * (j + 0.5) / n for j in range(n)]
        last_oks = [1 + j % (len(VERSIONS) - 1) for j in range(n)]
        rng.shuffle(centers)
        rng.shuffle(last_oks)
        ladders[kind] = (centers, last_oks)
    strategies, pairs = [], []
    pair_lines = 4 if w.pairs_per_strategy == 1 else 10
    for i, kind in enumerate(kinds):
        words = " ".join(rng.choice(WORDS) for _ in range(6))
        title = f"{KIND_PHRASES[kind]}, variant {i:05d}"
        description = f"{KIND_PHRASES[kind]} around the {words}."
        when = f"When the proof handles a {words} ({seed}.{i})."
        sid = _content_id("strategy", title, description, when)
        center, last_ok = ladders[kind][0].pop(), ladders[kind][1].pop()
        members, reductions, compat_sets = [], [], []
        for p in range(w.pairs_per_strategy):
            statement = f"theorem pair_{i}_{p} (n : ℕ) : n + {p} = {p} + n :="
            long_body = [f"  have haux{q} : n * {q} = {q} * n := by ring"
                         for q in range(pair_lines)] + ["  omega"]
            long_proof = statement + " by\n" + "\n".join(long_body)
            short_proof = statement + " by\n  omega"
            pid = _content_id("pair", statement, long_proof, short_proof)
            reduction = (round(center + rng.uniform(-0.04, 0.04), 4)
                         if w.objective == "compile_time" or rng.random() < 0.5
                         else None)
            status = {}
            for at, version in enumerate(VERSIONS[1:], start=1):
                if rng.random() < 0.1:
                    status[version] = "untested"
                else:
                    ok = at <= last_ok or rng.random() < 0.3
                    status[version] = "compiles" if ok else "fails"
            members.append(pid)
            if reduction is not None:
                reductions.append(reduction)
            if any(s != "untested" for s in status.values()):
                compat_sets.append({v for v, s in status.items() if s == "compiles"})
            pairs.append({
                "id": pid, "statement": statement, "long_proof": long_proof,
                "short_proof": short_proof,
                "source_corpus": "competition" if w.style == "competition" else "research",
                "compile_reduction": reduction,
                "version_status": dict(sorted(status.items())),
                "grounded_spans": [{"strategy_id": sid, "line_start": 2,
                                    "line_end": 1 + pair_lines}],
                "long_verified": True, "short_verified": True,
            })
        compat = set.intersection(*compat_sets) if compat_sets else set()
        strategies.append({
            "id": sid, "title": title, "description": description,
            "when_to_apply": when,
            "application_guide": [f"Find the {rng.choice(WORDS)} lines.",
                                  f"{KIND_PHRASES[kind]}.",
                                  "Recompile and compare token counts."],
            "abstract_example": {"before": "  simp\n  skip\n  omega",
                                 "after": "  simp\n  omega"},
            "potential_reduction": rng.choice(("high", "medium", "low")),
            "median_compile_reduction": (float(statistics.median(reductions))
                                         if reductions else None),
            "compatibility_set": sorted(compat),
            "member_pair_ids": members,
        })
    return strategies, pairs


def write(w: Workload, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    registry = {"schema_version": 1,
                "toolchains": [{"version": v, "root": f"toolchains/{v}"}
                               for v in VERSIONS]}
    (out / "registry.json").write_text(json.dumps(registry, indent=2) + "\n",
                                       encoding="utf-8")
    strategies, pairs = bank_records(w, seed)
    for name, records in (("strategies.jsonl", strategies),
                          ("pairs.jsonl", pairs),
                          ("theorems.jsonl", theorems(w, seed))):
        with (out / name).open("w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
                fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    write(WORKLOADS[args.workload], args.seed, Path(args.out))


if __name__ == "__main__":
    main()
