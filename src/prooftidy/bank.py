"""Strategy bank: data model, metadata rule, and persistence.

A bank serves strategies. Their member pairs are the evidence behind each
strategy's metadata (its median compile reduction and its compatibility
set), which follows from the members by one rule, ``expected_metadata``.
``load_bank`` reads the strategies alone. One validator checks each pair
record for both pair readers: ``read_pairs`` builds each checked record
into a ``ProofPair``, and ``recheck`` reduces it straight to what the rule
reads, a ``PairEvidence``, building no ``ProofPair``, then reports every
strategy whose stored metadata departs from the rule. No pair's text
outlives its line. Both record kinds are checked inline, field by field in
the order their errors are reported: ``_typed`` is called only to raise.

Storage is newline-delimited JSON, UTF-8, one record per line, strategies
and pairs in separate files. Record keys are exactly the field names of the
corresponding dataclass; unknown keys are rejected. Records are streamed,
each one built before the next line is read, so the first bad line of a
file is the one reported. Files are read as bytes, each line decoded on
its own: only ``b"\\n"`` ends a record, as JSON Lines defines it, and a
byte that is not UTF-8 is reported on its line. Within one read, each
distinct closed-set value (a version id, a status, a reduction level, a
compatibility set, a source corpus) is held once, and each distinct
version status map is reduced to the versions it compiles on once. Every
file is written through ``replacing``: concurrent writers and readers of
one file see a whole file, never a torn one. Loaded banks are effectively
immutable and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple

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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


@dataclass
class Bank:
    """In-memory view of a strategy bank: its strategies and registry.

    The member pairs are not held; ``recheck`` streams them from ``path``.
    ``path`` is the directory ``load_bank`` read the bank from, and None
    for a bank built in memory. ``StrategyIndex.build`` keeps the index
    vectors of a loaded bank in that directory.
    """

    strategies: dict[str, Strategy] = field(default_factory=dict)
    registry: ToolchainRegistry = ToolchainRegistry(entries=())
    path: Path | None = None


class PairEvidence(NamedTuple):
    """What the metadata rule reads of one member pair: its compile
    reduction, and the versions its short proof compiles on (None when it
    was tested on no toolchain)."""

    compile_reduction: float | None
    compiles_on: frozenset[str] | None

    @classmethod
    def from_fields(cls, compile_reduction: float | None,
                    version_status: Mapping[str, str]) -> "PairEvidence":
        """The evidence of a pair with these two fields: a pair tested on
        any toolchain compiles on the versions whose status is
        ``compiles``; one tested on none has no such set."""
        compiles_on = frozenset([v for v, s in version_status.items()
                                 if s == "compiles"])
        if compiles_on or any(s != "untested" for s in version_status.values()):
            return cls(compile_reduction, compiles_on)
        return cls(compile_reduction, None)


def expected_metadata(
    strategy: Strategy, members: Mapping[str, PairEvidence]
) -> tuple[float | None, frozenset[str]]:
    """The bank's one metadata rule: (median_compile_reduction,
    compatibility_set) recomputed from the strategy's member pairs, looked
    up by id in ``members``; an id not there is skipped, and an id listed
    twice counts once.

    The median is over the members with a compile reduction; an even count
    takes the mean of the two middle values. The compatibility set is the
    intersection, over the members version-tested on at least one
    toolchain, of the versions their short proof compiles under. No
    eligible member means absent metadata (None / empty set).
    """
    reductions: list[float] = []
    tested: list[frozenset[str]] = []
    for pid in dict.fromkeys(strategy.member_pair_ids):
        if pid in members:
            reduction, compiles_on = members[pid]
            if reduction is not None:
                reductions.append(reduction)
            if compiles_on is not None:
                tested.append(compiles_on)
    reductions.sort()
    n = len(reductions)
    if n == 0:
        median = None
    elif n % 2:
        median = float(reductions[n // 2])
    else:  # ``statistics.median``'s arithmetic: the mean of the middles
        median = (reductions[n // 2 - 1] + reductions[n // 2]) / 2
    compat = frozenset.intersection(*tested) if tested else frozenset()
    return median, compat


@dataclass(frozen=True)
class Discrepancy:
    strategy_id: str
    field: str
    stored: object
    expected: object


def recheck(bank: Bank) -> list[Discrepancy]:
    """Report every strategy whose stored metadata disagrees with its members.

    The member pairs are streamed from the bank's directory. Each record is
    checked by the validator ``read_pairs`` uses, so a bad or duplicate
    pair record raises the same ``SchemaError`` here, and is then reduced
    straight to its ``PairEvidence``: no ``ProofPair`` is built. A bank
    without a ``path`` raises ``ValueError``.
    """
    if bank.path is None:
        raise ValueError("recheck reads the member pairs from the bank's "
                         "directory, and this bank has no path")
    reader = _RecordReader(bank.registry)
    members = dict(_read_records(bank.path / PAIRS_FILENAME, reader.evidence))
    out: list[Discrepancy] = []
    for strategy in bank.strategies.values():
        median, compat = expected_metadata(strategy, members)
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
    """Raise the error for a record that is not an object with exactly the
    ``expected`` keys: a non-object, else its first unknown key, else a
    missing key."""
    if not isinstance(record, dict):
        raise SchemaError("record must be a JSON object", field="record",
                          line=line)
    for key in record:
        if key not in expected:
            raise SchemaError(f"unknown key {key!r}", field=key, line=line)
    for key in expected:
        if key not in record:
            raise SchemaError(f"missing key {key!r}", field=key, line=line)


def _repeated_id(ids) -> str | None:
    """The first of ``ids`` (strings) that an earlier one repeats, or None."""
    if len(set(ids)) == len(ids):
        return None
    return next(pid for i, pid in enumerate(ids) if pid in ids[:i])


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
    """Validates one read's records and builds what the read needs of each.

    ``strategy`` checks a strategy record and builds its ``Strategy``. A
    pair record has one validator, ``_check_pair``, and two thin builders
    over it: ``pair`` builds the ``ProofPair`` that ``read_pairs`` yields,
    and ``evidence`` the ``PairEvidence`` that ``recheck`` keeps, so the two
    readers raise the same ``SchemaError`` for a bad record. Within the read
    each value from a small closed set is one object: the registry's own
    string for a version id, the ``VERSION_STATUSES`` and
    ``REDUCTION_LEVELS`` members, one frozenset per distinct compatibility
    set or set of versions a pair compiles on, and one string per distinct
    source corpus. Both record kinds are checked inline, in the order their
    fields are reported; ``_typed`` is called only to raise.
    """

    def __init__(self, registry: ToolchainRegistry):
        self.registry = registry
        self._shared = {value: value for value in (
            *registry.versions, *VERSION_STATUSES, *REDUCTION_LEVELS)}
        # A checked version status's items -> the versions it compiles on.
        self._compiles_on: dict[tuple, frozenset[str] | None] = {}

    def _share(self, value):
        return self._shared.setdefault(value, value)

    def strategy(self, record: dict, line: int) -> Strategy:
        """Check a strategy record, field by field in the order its fields
        are reported, and build its ``Strategy``. The common case is tested
        inline, and ``_typed`` called only to raise."""
        if not (isinstance(record, dict) and record.keys() == _STRATEGY_KEYS):
            _require_keys(record, _STRATEGY_KEYS, line)
        for key in _STRATEGY_TEXT:
            value = record[key]
            if not (isinstance(value, str) and value):
                _typed(record, key, str, line, non_empty=True)
        level = record["potential_reduction"]
        if level not in REDUCTION_LEVELS:
            raise SchemaError(
                f"potential_reduction must be one of {REDUCTION_LEVELS}",
                field="potential_reduction", line=line,
            )
        example = record["abstract_example"]
        if not isinstance(example, dict):
            _typed(record, "abstract_example", dict, line)
        before, after = example.get("before"), example.get("after")
        if not (len(example) == 2 and isinstance(before, str)
                and isinstance(after, str)):
            raise SchemaError("abstract_example needs 'before' and 'after'",
                              field="abstract_example", line=line)
        guide = record["application_guide"]
        if not (isinstance(guide, list) and guide):
            _typed(record, "application_guide", list, line, non_empty=True)
        for step in guide:
            if not isinstance(step, str):
                raise SchemaError("application_guide must be a list of steps",
                                  field="application_guide", line=line)
        compat = record["compatibility_set"]
        if not isinstance(compat, list):
            _typed(record, "compatibility_set", list, line)
        try:  # every frozenset in ``_shared`` holds registered versions only
            compat = self._shared[frozenset(compat)]
        except (KeyError, TypeError):  # a new set, or an unhashable version
            for version in compat:
                if version not in self.registry:
                    raise SchemaError(f"unknown toolchain version {version!r}",
                                      field="compatibility_set", line=line)
            compat = self._share(frozenset(map(self._share, compat)))
        members = record["member_pair_ids"]
        if not isinstance(members, list):
            _typed(record, "member_pair_ids", list, line)
        for pid in members:
            if not isinstance(pid, str):
                raise SchemaError("member_pair_ids must be a list of pair ids",
                                  field="member_pair_ids", line=line)
        if (len(members) > 1
                and (repeated := _repeated_id(members)) is not None):
            raise SchemaError(f"member_pair_ids lists {repeated!r} twice",
                              field="member_pair_ids", line=line)
        median = record["median_compile_reduction"]
        if not (median is None or type(median) is float
                and -math.inf < median <= 1.0):
            median = _compile_reduction(record, "median_compile_reduction",
                                        line)
        return Strategy(
            id=record["id"],
            title=record["title"],
            description=record["description"],
            when_to_apply=record["when_to_apply"],
            application_guide=tuple(guide),
            abstract_example=(before, after),
            potential_reduction=self._shared[level],
            median_compile_reduction=median,
            compatibility_set=compat,
            member_pair_ids=tuple(members),
        )

    def _check_pair(self, record: dict, line: int) -> float | None:
        """Every check of a pair record, in the order its fields are
        reported; returns its compile reduction as a float. The common case
        is tested inline, and ``_typed`` called only to raise."""
        if not (isinstance(record, dict) and record.keys() == _PAIR_KEYS):
            _require_keys(record, _PAIR_KEYS, line)
        pid = record["id"]
        if not (isinstance(pid, str) and pid):
            _typed(record, "id", str, line, non_empty=True)
        for key in _PAIR_TEXT:
            if not isinstance(record[key], str):
                _typed(record, key, str, line)
        status = record["version_status"]
        if not isinstance(status, dict):
            _typed(record, "version_status", dict, line)
        versions = self.registry._version_set  # JSON keys: hashable strings
        for version, verdict in status.items():
            if version not in versions:
                raise SchemaError(f"unknown toolchain version {version!r}",
                                  field="version_status", line=line)
            if verdict not in VERSION_STATUSES:
                raise SchemaError(
                    f"version status must be one of {VERSION_STATUSES}",
                    field="version_status", line=line,
                )
        spans = record["grounded_spans"]
        if not isinstance(spans, list):
            _typed(record, "grounded_spans", list, line)
        if spans:
            n_lines = line_count(record["long_proof"])
        for span in spans:
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
        reduction = record["compile_reduction"]
        if not (reduction is None or type(reduction) is float
                and -math.inf < reduction <= 1.0):
            reduction = _compile_reduction(record, "compile_reduction", line)
        for key in ("long_verified", "short_verified"):
            if not isinstance(record[key], bool):
                _typed(record, key, bool, line)
        return reduction

    def pair(self, record: dict, line: int) -> ProofPair:
        reduction = self._check_pair(record, line)
        return ProofPair(
            id=record["id"],
            statement=record["statement"],
            long_proof=record["long_proof"],
            short_proof=record["short_proof"],
            source_corpus=self._share(record["source_corpus"]),
            compile_reduction=reduction,
            version_status={self._share(version): self._share(verdict)
                            for version, verdict in record["version_status"].items()},
            grounded_spans=tuple(
                (span["strategy_id"], span["line_start"], span["line_end"])
                for span in record["grounded_spans"]),
            long_verified=record["long_verified"],
            short_verified=record["short_verified"],
        )

    def evidence(self, record: dict, line: int) -> PairEvidence:
        reduction = self._check_pair(record, line)
        status = record["version_status"]
        key = tuple(status.items())
        try:
            compiles_on = self._compiles_on[key]
        except KeyError:
            compiles_on = PairEvidence.from_fields(None, status).compiles_on
            if compiles_on is not None:
                compiles_on = self._share(compiles_on)
            self._compiles_on[key] = compiles_on
        return PairEvidence(reduction, compiles_on)


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


def save_bank(bank: Bank, path: str | Path,
              pairs: Iterable[ProofPair] = ()) -> None:
    """Write the bank's strategies and ``pairs`` as one-record-per-line
    files under ``path``.

    A strategy that lists a member id twice raises ``ValueError`` before
    anything is written: ``load_bank`` would refuse its record.
    """
    for strategy in bank.strategies.values():
        if (repeated := _repeated_id(strategy.member_pair_ids)) is not None:
            raise ValueError(f"strategy {strategy.id!r} lists member "
                             f"{repeated!r} twice")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _write_jsonl(root / STRATEGIES_FILENAME,
                 (s.to_dict() for s in bank.strategies.values()))
    _write_jsonl(root / PAIRS_FILENAME, (p.to_dict() for p in pairs))


#: The C scanner that ``json.loads`` runs, called without its wrapper.
#: It decodes a stripped line exactly when it stops at the line's end;
#: any other line goes through ``json.loads`` for its error.
_scan_json = json.JSONDecoder().scan_once


def _read_records(path: Path, build) -> Iterator[tuple[str, object]]:
    """Yield (id, ``build(record, line)``) for each line of ``path`` that
    holds more than JSON whitespace, each decoded and built before the
    next is read.

    Only ``b"\\n"`` ends a line, as in JSON Lines: a bare ``"\\r"`` is JSON
    whitespace inside a record, and a CRLF's ``"\\r"`` is stripped. Other
    whitespace, a form feed or a no-break space, is no JSON. A line that
    is not UTF-8, is no JSON, or repeats an earlier record's id, is a
    ``SchemaError`` on that line, the repeat raised after the record's own
    checks. A missing file raises ``FileNotFoundError`` naming it.
    """
    seen: set[str] = set()
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip(b" \t\r\n")
            if not raw:
                continue
            try:
                raw = raw.decode("utf-8")
                record, end = _scan_json(raw, 0)
            except UnicodeDecodeError as exc:  # before its base, ValueError
                raise SchemaError(f"invalid UTF-8: {exc}", field="record",
                                  line=lineno) from exc
            except (StopIteration, ValueError):
                end = -1
            if end != len(raw):
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"invalid JSON: {exc}", field="record",
                                      line=lineno) from exc
            item = build(record, lineno)
            rid = record["id"]
            if rid in seen:
                raise SchemaError(f"duplicate id {rid!r} in {path.name}",
                                  field="id", line=lineno)
            seen.add(rid)
            yield rid, item


def load_bank(path: str | Path, registry: ToolchainRegistry) -> Bank:
    """Load and validate a bank's strategies; raises SchemaError naming the
    bad field, and FileNotFoundError when the strategies file is missing.

    The pairs file is not read: ``read_pairs`` streams it. The bank's
    ``path`` is ``path``.
    """
    root = Path(path)
    reader = _RecordReader(registry)
    strategies = dict(_read_records(root / STRATEGIES_FILENAME, reader.strategy))
    return Bank(strategies=strategies, registry=registry, path=root)


def read_pairs(path: str | Path,
               registry: ToolchainRegistry) -> Iterator[ProofPair]:
    """Yield the validated pairs of the bank at ``path``, one at a time.

    Each line is decoded, checked and built before the next is read, so the
    pairs before the first bad line are yielded and then its SchemaError is
    raised. A missing pairs file raises FileNotFoundError. The checks are
    those ``recheck`` makes: both readers share one validator.
    """
    reader = _RecordReader(registry)
    return (pair for _, pair in _read_records(Path(path) / PAIRS_FILENAME,
                                              reader.pair))


def pair_id_for(statement: str, long_proof: str, short_proof: str) -> str:
    return content_id("pair", statement, long_proof, short_proof)

