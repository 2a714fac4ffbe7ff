"""Strategy bank: data model, metadata aggregation, and persistence.

Storage is newline-delimited JSON, UTF-8, one record per line, strategies
and pairs in separate files. Record keys are exactly the field names of the
corresponding dataclass; unknown keys are rejected. Mutation is
single-writer with whole-file replace-on-commit; loaded banks are
effectively immutable and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

from .errors import EmptyCluster, SchemaError, UnknownVersion

REDUCTION_LEVELS = ("high", "medium", "low")
VERSION_STATUSES = ("compiles", "fails", "untested")

STRATEGIES_FILENAME = "strategies.jsonl"
PAIRS_FILENAME = "pairs.jsonl"

_ID_PREFIX_LEN = 12


def content_id(*parts: str) -> str:
    """Stable id: hex prefix of a content hash, identical across rebuilds."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:_ID_PREFIX_LEN]


@dataclass(frozen=True)
class Strategy:
    """A reusable refactoring pattern plus cluster-level metadata.

    The six schema fields (title through potential_reduction) are mandatory
    and non-empty. ``median_compile_reduction`` is None when no member pair
    carries profiling data; such strategies rank last under the compile
    objective. An empty ``compatibility_set`` means "validated only on the
    bank's native toolchain".
    """

    id: str
    title: str
    description: str
    when_to_apply: str
    application_guide: tuple[str, ...]
    abstract_example: tuple[str, str]  # (before, after)
    potential_reduction: str
    median_compile_reduction: float | None = None
    compatibility_set: frozenset[str] = frozenset()
    member_pair_ids: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "description": self.description,
            "when_to_apply": self.when_to_apply,
            "application_guide": list(self.application_guide),
            "abstract_example": {
                "before": self.abstract_example[0],
                "after": self.abstract_example[1],
            },
            "potential_reduction": self.potential_reduction,
            "median_compile_reduction": self.median_compile_reduction,
            "compatibility_set": sorted(self.compatibility_set),
            "member_pair_ids": list(self.member_pair_ids),
        }


@dataclass(frozen=True)
class ProofPair:
    """A theorem with verified long and short proofs and profiling metadata.

    ``version_status`` records the short proof's compile status per
    non-native toolchain. ``grounded_spans`` anchors extracted strategies to
    1-based inclusive line ranges of the long proof.
    """

    id: str
    statement: str
    long_proof: str
    short_proof: str
    source_corpus: str
    compile_reduction: float | None = None
    version_status: dict[str, str] = field(default_factory=dict)
    grounded_spans: tuple[tuple[str, int, int], ...] = ()
    long_verified: bool = False
    short_verified: bool = False

    def compiled_versions(self) -> frozenset[str]:
        """Versions under which the short proof is known to compile."""
        return frozenset(v for v, s in self.version_status.items() if s == "compiles")

    def has_version_data(self) -> bool:
        """True when at least one toolchain was actually tested."""
        return any(s != "untested" for s in self.version_status.values())

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "statement": self.statement,
            "long_proof": self.long_proof,
            "short_proof": self.short_proof,
            "source_corpus": self.source_corpus,
            "compile_reduction": self.compile_reduction,
            "version_status": dict(sorted(self.version_status.items())),
            "grounded_spans": [
                {"strategy_id": sid, "line_start": ls, "line_end": le}
                for sid, ls, le in self.grounded_spans
            ],
            "long_verified": self.long_verified,
            "short_verified": self.short_verified,
        }


@dataclass(frozen=True)
class ToolchainRegistry:
    """Ordered toolchain declarations: (version id, environment root).

    Version identifiers are opaque strings ordered by declaration order;
    the first entry is the bank's native toolchain.
    """

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set()
        for version, _ in self.entries:
            if version in seen:
                raise SchemaError(
                    f"duplicate toolchain version {version!r}", field="version"
                )
            seen.add(version)

    @property
    def versions(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.entries)

    @property
    def native_version(self) -> str:
        if not self.entries:
            raise UnknownVersion("registry is empty")
        return self.entries[0][0]

    def root_for(self, version: str) -> Path:
        for v, root in self.entries:
            if v == version:
                return Path(root)
        raise UnknownVersion(f"toolchain version {version!r} is not registered")

    def __contains__(self, version: str) -> bool:
        return any(v == version for v, _ in self.entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "ToolchainRegistry":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or "toolchains" not in data:
            raise SchemaError("registry file must have a 'toolchains' list",
                              field="toolchains")
        entries = []
        for item in data["toolchains"]:
            if "version" not in item or "root" not in item:
                raise SchemaError("toolchain entry needs 'version' and 'root'",
                                  field="toolchains")
            entries.append((item["version"], item["root"]))
        return cls(entries=tuple(entries))

    def to_file(self, path: str | Path) -> None:
        data = {
            "schema_version": 1,
            "toolchains": [{"version": v, "root": r} for v, r in self.entries],
        }
        Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


@dataclass
class Bank:
    """In-memory view of a strategy bank: strategies, pairs, registry."""

    strategies: dict[str, Strategy] = field(default_factory=dict)
    pairs: dict[str, ProofPair] = field(default_factory=dict)
    registry: ToolchainRegistry = ToolchainRegistry(entries=())

    def members_of(self, strategy: Strategy) -> list[ProofPair]:
        return [self.pairs[pid] for pid in strategy.member_pair_ids
                if pid in self.pairs]


def aggregate_compile_reduction(reductions: list[float]) -> float:
    """Median of pair-level compile reductions.

    Even-length clusters take the mean of the two middle values.
    """
    if not reductions:
        raise EmptyCluster("cannot aggregate an empty reduction list")
    return float(statistics.median(reductions))


def aggregate_compatibility(sets: Iterable[frozenset[str]]) -> frozenset[str]:
    """Intersection of the members' compatible-version sets."""
    sets = list(sets)
    if not sets:
        raise EmptyCluster("cannot intersect an empty list of version sets")
    out = frozenset(sets[0])
    for s in sets[1:]:
        out &= frozenset(s)
    return out


def expected_metadata(
    strategy: Strategy, bank: Bank
) -> tuple[float | None, frozenset[str]]:
    """Recompute (median_compile_reduction, compatibility_set) from members.

    Members with no profiling data are skipped for the median; members never
    version-tested are skipped for the intersection. No eligible members
    means absent metadata (None / empty set).
    """
    members = bank.members_of(strategy)
    reductions = [p.compile_reduction for p in members
                  if p.compile_reduction is not None]
    median = aggregate_compile_reduction(reductions) if reductions else None
    tested = [p.compiled_versions() for p in members if p.has_version_data()]
    compat = aggregate_compatibility(tested) if tested else frozenset()
    return median, compat


@dataclass(frozen=True)
class Discrepancy:
    strategy_id: str
    field: str
    stored: object
    expected: object


def recheck(bank: Bank) -> list[Discrepancy]:
    """Report every strategy whose stored metadata disagrees with its members."""
    out: list[Discrepancy] = []
    for strategy in bank.strategies.values():
        median, compat = expected_metadata(strategy, bank)
        if strategy.median_compile_reduction != median:
            out.append(Discrepancy(strategy.id, "median_compile_reduction",
                                   strategy.median_compile_reduction, median))
        if strategy.compatibility_set != compat:
            out.append(Discrepancy(strategy.id, "compatibility_set",
                                   sorted(strategy.compatibility_set),
                                   sorted(compat)))
    return out


# --- persistence ------------------------------------------------------------

_STRATEGY_KEYS = frozenset(f.name for f in fields(Strategy))
_PAIR_KEYS = frozenset(f.name for f in fields(ProofPair))
_SCHEMA_FIELDS = (
    "title", "description", "when_to_apply", "application_guide",
    "abstract_example", "potential_reduction",
)


def _require_keys(record: dict, expected: frozenset[str], line: int) -> None:
    for key in record:
        if key not in expected:
            raise SchemaError(f"unknown key {key!r}", field=key, line=line)
    for key in expected:
        if key not in record:
            raise SchemaError(f"missing key {key!r}", field=key, line=line)


def _non_empty(record: dict, key: str, line: int) -> None:
    if not record[key]:
        raise SchemaError(f"{key!r} must be non-empty", field=key, line=line)


def _compile_reduction(record: dict, key: str, line: int) -> float | None:
    value = record[key]
    if value is None:
        return None
    value = float(value)
    if not math.isfinite(value):
        raise SchemaError("compile reduction must be finite", field=key,
                          line=line)
    if value > 1.0:
        raise SchemaError("compile reduction cannot exceed 1.0", field=key,
                          line=line)
    return value


def strategy_from_dict(
    record: dict, registry: ToolchainRegistry, line: int = 0
) -> Strategy:
    _require_keys(record, _STRATEGY_KEYS, line)
    for key in _SCHEMA_FIELDS:
        _non_empty(record, key, line)
    _non_empty(record, "id", line)
    if record["potential_reduction"] not in REDUCTION_LEVELS:
        raise SchemaError(
            f"potential_reduction must be one of {REDUCTION_LEVELS}",
            field="potential_reduction", line=line,
        )
    example = record["abstract_example"]
    if not isinstance(example, dict) or set(example) != {"before", "after"}:
        raise SchemaError("abstract_example needs 'before' and 'after'",
                          field="abstract_example", line=line)
    guide = record["application_guide"]
    if not isinstance(guide, list) or not all(isinstance(s, str) for s in guide):
        raise SchemaError("application_guide must be a list of steps",
                          field="application_guide", line=line)
    compat = record["compatibility_set"]
    for version in compat:
        if version not in registry:
            raise SchemaError(f"unknown toolchain version {version!r}",
                              field="compatibility_set", line=line)
    median = _compile_reduction(record, "median_compile_reduction", line)
    return Strategy(
        id=record["id"],
        title=record["title"],
        description=record["description"],
        when_to_apply=record["when_to_apply"],
        application_guide=tuple(guide),
        abstract_example=(example["before"], example["after"]),
        potential_reduction=record["potential_reduction"],
        median_compile_reduction=median,
        compatibility_set=frozenset(compat),
        member_pair_ids=tuple(record["member_pair_ids"]),
    )


def pair_from_dict(
    record: dict, registry: ToolchainRegistry, line: int = 0
) -> ProofPair:
    _require_keys(record, _PAIR_KEYS, line)
    _non_empty(record, "id", line)
    status = record["version_status"]
    for version, verdict in status.items():
        if version not in registry:
            raise SchemaError(f"unknown toolchain version {version!r}",
                              field="version_status", line=line)
        if verdict not in VERSION_STATUSES:
            raise SchemaError(
                f"version status must be one of {VERSION_STATUSES}",
                field="version_status", line=line,
            )
    n_lines = max(1, len(record["long_proof"].splitlines()))
    spans = []
    for span in record["grounded_spans"]:
        ls, le = span["line_start"], span["line_end"]
        if not (1 <= ls <= le <= n_lines):
            raise SchemaError(
                f"span ({ls}, {le}) outside the long proof's {n_lines} lines",
                field="grounded_spans", line=line,
            )
        spans.append((span["strategy_id"], ls, le))
    reduction = _compile_reduction(record, "compile_reduction", line)
    return ProofPair(
        id=record["id"],
        statement=record["statement"],
        long_proof=record["long_proof"],
        short_proof=record["short_proof"],
        source_corpus=record["source_corpus"],
        compile_reduction=reduction,
        version_status=dict(status),
        grounded_spans=tuple(spans),
        long_verified=bool(record["long_verified"]),
        short_verified=bool(record["short_verified"]),
    )


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    # Whole-file replace-on-commit: write a sibling temp file, then rename.
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
    os.replace(tmp, path)


def save_bank(bank: Bank, path: str | Path) -> None:
    """Write strategies and pairs as one-record-per-line files under ``path``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _write_jsonl(root / STRATEGIES_FILENAME,
                 (s.to_dict() for s in bank.strategies.values()))
    _write_jsonl(root / PAIRS_FILENAME,
                 (p.to_dict() for p in bank.pairs.values()))


def _read_jsonl(path: Path) -> list[tuple[int, dict]]:
    out = []
    if not path.exists():
        return out
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc}", field="record",
                                  line=lineno) from exc
            out.append((lineno, record))
    return out


def load_bank(path: str | Path, registry: ToolchainRegistry) -> Bank:
    """Load and validate a bank; raises SchemaError naming the bad field."""
    root = Path(path)
    strategies: dict[str, Strategy] = {}
    for lineno, record in _read_jsonl(root / STRATEGIES_FILENAME):
        strategy = strategy_from_dict(record, registry, lineno)
        if strategy.id in strategies:
            raise SchemaError(f"duplicate strategy id {strategy.id!r}",
                              field="id", line=lineno)
        strategies[strategy.id] = strategy
    pairs: dict[str, ProofPair] = {}
    for lineno, record in _read_jsonl(root / PAIRS_FILENAME):
        pair = pair_from_dict(record, registry, lineno)
        if pair.id in pairs:
            raise SchemaError(f"duplicate pair id {pair.id!r}",
                              field="id", line=lineno)
        pairs[pair.id] = pair
    return Bank(strategies=strategies, pairs=pairs, registry=registry)


def strategy_id_for(title: str, description: str, when_to_apply: str) -> str:
    return content_id("strategy", title, description, when_to_apply)


def pair_id_for(statement: str, long_proof: str, short_proof: str) -> str:
    return content_id("pair", statement, long_proof, short_proof)

