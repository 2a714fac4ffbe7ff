"""Strategy bank: data model, metadata rule, and persistence.

A strategy's metadata (its median compile reduction and its compatibility
set) follows from its member pairs by one rule, ``expected_metadata``;
``recheck`` reports every strategy whose stored metadata departs from it.

Storage is newline-delimited JSON, UTF-8, one record per line, strategies
and pairs in separate files. Record keys are exactly the field names of the
corresponding dataclass; unknown keys are rejected. ``load_bank`` streams
the records, building each one before it reads the next line, so the
first bad line of a file is the one reported. Within one load, each
distinct closed-set value (a version id, a status, a reduction level, a
compatibility set, a source corpus) is held once. Every file is written
through ``replacing``: concurrent writers and readers of one file see a
whole file, never a torn one. Loaded banks are effectively immutable and
safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .errors import SchemaError, UnknownVersion
from .tokenizer import line_count

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
        # Not a field: equality and repr stay those of ``entries``.
        object.__setattr__(self, "_version_set", frozenset(seen))

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
        try:
            return version in self._version_set
        except TypeError:  # an unhashable value is no registered version
            return False

    @classmethod
    def from_file(cls, path: str | Path) -> "ToolchainRegistry":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", field="record") from exc
        if not (isinstance(data, dict)
                and isinstance(data.get("toolchains"), list)):
            raise SchemaError("registry file must have a 'toolchains' list",
                              field="toolchains")
        entries = []
        for item in data["toolchains"]:
            if not (isinstance(item, dict)
                    and "version" in item and "root" in item):
                raise SchemaError("toolchain entry must be an object with "
                                  "'version' and 'root'", field="toolchains")
            entries.append((_typed(item, "version", str, None, non_empty=True),
                            _typed(item, "root", str, None, non_empty=True)))
        return cls(entries=tuple(entries))

    def to_file(self, path: str | Path) -> None:
        data = {
            "schema_version": 1,
            "toolchains": [{"version": v, "root": r} for v, r in self.entries],
        }
        with replacing(Path(path)) as fh:
            fh.write((json.dumps(data, indent=2) + "\n").encode("utf-8"))


@dataclass
class Bank:
    """In-memory view of a strategy bank: strategies, pairs, registry.

    ``path`` is the directory ``load_bank`` read the bank from, and None
    for a bank built in memory. ``StrategyIndex.build`` keeps the index
    vectors of a loaded bank in that directory.
    """

    strategies: dict[str, Strategy] = field(default_factory=dict)
    pairs: dict[str, ProofPair] = field(default_factory=dict)
    registry: ToolchainRegistry = ToolchainRegistry(entries=())
    path: Path | None = None


def expected_metadata(
    strategy: Strategy, bank: Bank
) -> tuple[float | None, frozenset[str]]:
    """The bank's one metadata rule: (median_compile_reduction,
    compatibility_set) recomputed from the strategy's member pairs.

    The median is over the members with a compile reduction; an even count
    takes the mean of the two middle values. The compatibility set is the
    intersection, over the members version-tested on at least one
    toolchain, of the versions their short proof compiles under. No
    eligible member means absent metadata (None / empty set).
    """
    members = [bank.pairs[pid] for pid in strategy.member_pair_ids
               if pid in bank.pairs]
    reductions = [p.compile_reduction for p in members
                  if p.compile_reduction is not None]
    tested = [frozenset(v for v, s in p.version_status.items() if s == "compiles")
              for p in members
              if any(s != "untested" for s in p.version_status.values())]
    median = float(statistics.median(reductions)) if reductions else None
    compat = frozenset.intersection(*tested) if tested else frozenset()
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
_STRATEGY_TEXT = ("id", "title", "description", "when_to_apply")
_PAIR_TEXT = ("statement", "long_proof", "short_proof", "source_corpus")


def _require_keys(record: dict, expected: frozenset[str], line: int) -> None:
    if not isinstance(record, dict):
        raise SchemaError("record must be a JSON object", field="record",
                          line=line)
    if record.keys() == expected:
        return
    for key in record:
        if key not in expected:
            raise SchemaError(f"unknown key {key!r}", field=key, line=line)
    for key in expected:
        if key not in record:
            raise SchemaError(f"missing key {key!r}", field=key, line=line)


def _typed(record: dict, key: str, kind: type, line: int | None,
           non_empty: bool = False):
    """``record[key]``, which must be a ``kind``, and not empty when
    ``non_empty``."""
    value = record[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{key!r} must be of type {kind.__name__}",
                          field=key, line=line)
    if non_empty and not value:
        raise SchemaError(f"{key!r} must be non-empty", field=key, line=line)
    return value


def _compile_reduction(record: dict, key: str, line: int) -> float | None:
    value = record[key]
    if value is None:
        return None
    if type(value) not in (float, int):  # a bool is no number here
        raise SchemaError("compile reduction must be a number or null",
                          field=key, line=line)
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError("compile reduction must be finite", field=key,
                          line=line)
    if value > 1.0:
        raise SchemaError("compile reduction cannot exceed 1.0", field=key,
                          line=line)
    return value


class _RecordReader:
    """Validates one load's records and turns each into its dataclass.

    Within the load each value from a small closed set is one object: the
    registry's own string for a version id, the ``VERSION_STATUSES`` and
    ``REDUCTION_LEVELS`` members, one frozenset per distinct compatibility
    set and one string per distinct source corpus.
    """

    def __init__(self, registry: ToolchainRegistry):
        self.registry = registry
        self._shared = {value: value for value in (
            *registry.versions, *VERSION_STATUSES, *REDUCTION_LEVELS)}

    def _share(self, value):
        return self._shared.setdefault(value, value)

    def strategy(self, record: dict, line: int) -> Strategy:
        _require_keys(record, _STRATEGY_KEYS, line)
        for key in _STRATEGY_TEXT:
            _typed(record, key, str, line, non_empty=True)
        if record["potential_reduction"] not in REDUCTION_LEVELS:
            raise SchemaError(
                f"potential_reduction must be one of {REDUCTION_LEVELS}",
                field="potential_reduction", line=line,
            )
        example = _typed(record, "abstract_example", dict, line)
        if (set(example) != {"before", "after"}
                or not isinstance(example["before"], str)
                or not isinstance(example["after"], str)):
            raise SchemaError("abstract_example needs 'before' and 'after'",
                              field="abstract_example", line=line)
        guide = _typed(record, "application_guide", list, line, non_empty=True)
        if not all(isinstance(s, str) for s in guide):
            raise SchemaError("application_guide must be a list of steps",
                              field="application_guide", line=line)
        compat = _typed(record, "compatibility_set", list, line)
        for version in compat:
            if version not in self.registry:
                raise SchemaError(f"unknown toolchain version {version!r}",
                                  field="compatibility_set", line=line)
        members = _typed(record, "member_pair_ids", list, line)
        for pid in members:
            if not isinstance(pid, str):
                raise SchemaError("member_pair_ids must be a list of pair ids",
                                  field="member_pair_ids", line=line)
        median = _compile_reduction(record, "median_compile_reduction", line)
        return Strategy(
            id=record["id"],
            title=record["title"],
            description=record["description"],
            when_to_apply=record["when_to_apply"],
            application_guide=tuple(guide),
            abstract_example=(example["before"], example["after"]),
            potential_reduction=self._share(record["potential_reduction"]),
            median_compile_reduction=median,
            compatibility_set=self._share(frozenset(map(self._share, compat))),
            member_pair_ids=tuple(members),
        )

    def pair(self, record: dict, line: int) -> ProofPair:
        _require_keys(record, _PAIR_KEYS, line)
        _typed(record, "id", str, line, non_empty=True)
        for key in _PAIR_TEXT:
            _typed(record, key, str, line)
        status = _typed(record, "version_status", dict, line)
        for version, verdict in status.items():
            if version not in self.registry:
                raise SchemaError(f"unknown toolchain version {version!r}",
                                  field="version_status", line=line)
            if verdict not in VERSION_STATUSES:
                raise SchemaError(
                    f"version status must be one of {VERSION_STATUSES}",
                    field="version_status", line=line,
                )
        n_lines = line_count(record["long_proof"])
        spans = []
        for span in _typed(record, "grounded_spans", list, line):
            try:
                sid, ls, le = span["strategy_id"], span["line_start"], span["line_end"]
            except (TypeError, KeyError):  # not an object, or a key missing
                sid = ls = le = None
            if not (isinstance(sid, str) and type(ls) is int and type(le) is int):
                raise SchemaError(
                    "a grounded span needs a strategy_id string and integer "
                    "line_start and line_end", field="grounded_spans", line=line,
                )
            if not (1 <= ls <= le <= n_lines):
                raise SchemaError(
                    f"span ({ls}, {le}) outside the long proof's {n_lines} lines",
                    field="grounded_spans", line=line,
                )
            spans.append((sid, ls, le))
        reduction = _compile_reduction(record, "compile_reduction", line)
        return ProofPair(
            id=record["id"],
            statement=record["statement"],
            long_proof=record["long_proof"],
            short_proof=record["short_proof"],
            source_corpus=self._share(record["source_corpus"]),
            compile_reduction=reduction,
            version_status={self._share(version): self._share(verdict)
                            for version, verdict in status.items()},
            grounded_spans=tuple(spans),
            long_verified=_typed(record, "long_verified", bool, line),
            short_verified=_typed(record, "short_verified", bool, line),
        )


@contextmanager
def replacing(path: Path) -> Iterator[BinaryIO]:
    """Write ``path`` whole or not at all.

    Yields a new file beside ``path`` under a name no other writer uses,
    and ``os.replace``s it onto ``path`` when the block ends; on any
    failure the new file is removed and ``path`` is left as it was. The
    file gets ``open``'s permissions (0o666 less the umask), not the
    owner-only ones of ``tempfile.mkstemp``.
    """
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    with replacing(path) as fh:
        for record in records:
            line = json.dumps(record, ensure_ascii=False, sort_keys=True)
            fh.write(line.encode("utf-8") + b"\n")


def save_bank(bank: Bank, path: str | Path) -> None:
    """Write strategies and pairs as one-record-per-line files under ``path``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _write_jsonl(root / STRATEGIES_FILENAME,
                 (s.to_dict() for s in bank.strategies.values()))
    _write_jsonl(root / PAIRS_FILENAME,
                 (p.to_dict() for p in bank.pairs.values()))


def _read_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line, one at a time."""
    if not path.exists():
        return
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
            yield lineno, record


def load_bank(path: str | Path, registry: ToolchainRegistry) -> Bank:
    """Load and validate a bank; raises SchemaError naming the bad field.

    Records are streamed: each line is decoded, validated and turned into
    its ``Strategy`` or ``ProofPair`` before the next line is read, so the
    first bad line of a file is the one reported, whatever follows it. The
    bank's ``path`` is ``path``.
    """
    root = Path(path)
    reader = _RecordReader(registry)
    bank = Bank(registry=registry, path=root)
    for filename, build, records in (
            (STRATEGIES_FILENAME, reader.strategy, bank.strategies),
            (PAIRS_FILENAME, reader.pair, bank.pairs)):
        for lineno, record in _read_jsonl(root / filename):
            item = build(record, lineno)
            if item.id in records:
                raise SchemaError(f"duplicate id {item.id!r} in {filename}",
                                  field="id", line=lineno)
            records[item.id] = item
    return bank


def strategy_id_for(title: str, description: str, when_to_apply: str) -> str:
    return content_id("strategy", title, description, when_to_apply)


def pair_id_for(statement: str, long_proof: str, short_proof: str) -> str:
    return content_id("pair", statement, long_proof, short_proof)

