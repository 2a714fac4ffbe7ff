"""Strategy bank: the metadata rule, persistence round trip, schema validation,
and the streamed recheck of the member pairs."""

from __future__ import annotations

import itertools
import json
import random
import statistics
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooftidy.bank import (
    REDUCTION_LEVELS,
    VERSION_STATUSES,
    Bank,
    Discrepancy,
    PairEvidence,
    ProofPair,
    Strategy,
    ToolchainRegistry,
    _read_records,
    expected_metadata,
    load_bank,
    pair_id_for,
    read_pairs,
    recheck,
    save_bank,
)
from prooftidy.errors import SchemaError, UnknownVersion

REGISTRY = ToolchainRegistry(entries=(
    ("v4.24.0", "/toolchains/v4.24.0"),
    ("v4.14.0", "/toolchains/v4.14.0"),
    ("v4.16.0", "/toolchains/v4.16.0"),
    ("v4.22.0", "/toolchains/v4.22.0"),
))


def make_strategy(i: int = 0, **overrides) -> Strategy:
    base = dict(
        id=f"s{i:04d}",
        title=f"Collapse case split {i}",
        description=f"Replace exhaustive case analysis {i} with one lemma.",
        when_to_apply="Matrix equality proved entry by entry",
        application_guide=("Delete the per-entry haves", "Use ext and fin_cases"),
        abstract_example=("have h1 ... have h4 ...", "ext i j <;> simp"),
        potential_reduction="medium",
        median_compile_reduction=0.25,
        compatibility_set=frozenset({"v4.16.0"}),
        member_pair_ids=(f"p{i:04d}",),
    )
    base.update(overrides)
    return Strategy(**base)


def make_pair(i: int = 0, **overrides) -> ProofPair:
    base = dict(
        id=f"p{i:04d}",
        statement=f"theorem t{i} : P{i}",
        long_proof="have h1 : a = a := rfl\nhave h2 : b = b := rfl\nexact h2",
        short_proof="rfl",
        source_corpus="synthetic",
        compile_reduction=0.25,
        version_status={"v4.16.0": "compiles", "v4.14.0": "fails"},
        grounded_spans=(("s0000", 1, 2),),
        long_verified=True,
        short_verified=True,
    )
    base.update(overrides)
    return ProofPair(**base)


# --- the metadata rule --------------------------------------------------------

def metadata_of(reductions=(), statuses=()) -> tuple[float | None, frozenset[str]]:
    """``expected_metadata`` of one strategy whose members carry the given
    compile reductions and version statuses, one pair per value."""
    pairs = [make_pair(i, compile_reduction=r, version_status={})
             for i, r in enumerate(reductions)]
    pairs += [make_pair(len(pairs) + i, compile_reduction=None,
                        version_status=status)
              for i, status in enumerate(statuses)]
    strategy = make_strategy(0, member_pair_ids=tuple(p.id for p in pairs))
    return expected_metadata(strategy, evidence(pairs))


def evidence(pairs) -> dict[str, PairEvidence]:
    return {p.id: PairEvidence.from_fields(p.compile_reduction, p.version_status)
            for p in pairs}


def compiling_on(versions) -> dict[str, str]:
    """A version status that compiles on ``versions`` and fails on every
    other registered version."""
    return {v: "compiles" if v in versions else "fails"
            for v in REGISTRY.versions}


def test_median_odd():
    assert metadata_of([0.10, 0.50, 0.20])[0] == pytest.approx(0.20)


def test_median_even_is_mean_of_middles():
    assert metadata_of([0.10, 0.30])[0] == pytest.approx(0.20)


def test_intersection_basic():
    statuses = [compiling_on({"v4.14.0", "v4.16.0", "v4.22.0"}),
                compiling_on({"v4.16.0", "v4.22.0"})]
    assert metadata_of(statuses=statuses)[1] == frozenset({"v4.16.0", "v4.22.0"})


def test_intersection_single_member():
    statuses = [compiling_on({"v4.16.0"})]
    assert metadata_of(statuses=statuses)[1] == frozenset({"v4.16.0"})


def test_intersection_disjoint_is_empty():
    statuses = [compiling_on({"v4.14.0"}), compiling_on({"v4.22.0"})]
    assert metadata_of(statuses=statuses)[1] == frozenset()


def test_a_member_listed_twice_counts_once():
    # Counted twice, p1 would be two of three reductions and the median.
    strategy = make_strategy(0, member_pair_ids=("p1", "p1", "p2"))
    members = {"p1": PairEvidence(0.1, frozenset({"v4.16.0"})),
               "p2": PairEvidence(0.5, frozenset({"v4.16.0", "v4.22.0"}))}
    assert expected_metadata(strategy, members) == (
        (0.1 + 0.5) / 2, frozenset({"v4.16.0"}))


@given(st.lists(st.floats(min_value=-5, max_value=1, allow_nan=False),
                min_size=1, max_size=101))
@settings(max_examples=300, deadline=None)
def test_median_matches_sort_and_pick_oracle(values):
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        want = ordered[n // 2]
    else:
        want = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    assert metadata_of(values)[0] == pytest.approx(want, abs=1e-12)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_median_equals_statistics_median(values):
    assert metadata_of(values)[0] == statistics.median(values)


@given(st.lists(st.sets(st.sampled_from(list(REGISTRY.versions))), min_size=1,
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_intersection_matches_pairwise_oracle(raw_sets):
    sets = [frozenset(s) for s in raw_sets]
    got = metadata_of(statuses=[compiling_on(s) for s in sets])[1]
    want = set(REGISTRY.versions)
    for s in sets:
        want = {v for v in want if v in s}
    assert got == frozenset(want)
    for s in sets:
        assert got <= s


# --- persistence -------------------------------------------------------------

def build_bank(n_strategies: int = 3) -> Bank:
    strategies = {f"s{i:04d}": make_strategy(i) for i in range(n_strategies)}
    return Bank(strategies=strategies, registry=REGISTRY)


def build_pairs(n: int = 3) -> list[ProofPair]:
    return [make_pair(i) for i in range(n)]


def save(path, n: int = 1) -> None:
    """Write ``n`` strategies, each with its one member pair."""
    save_bank(build_bank(n), path, build_pairs(n))


def load_and_recheck(path) -> list[Discrepancy]:
    """The benchmark's set-up: load the strategies, then stream the pairs."""
    return recheck(load_bank(path, REGISTRY))


def test_round_trip_identity(tmp_path):
    bank, pairs = build_bank(), build_pairs()
    save_bank(bank, tmp_path, pairs)
    loaded = load_bank(tmp_path, REGISTRY)
    assert loaded.strategies == bank.strategies
    assert list(read_pairs(tmp_path, REGISTRY)) == pairs


def test_a_loaded_bank_holds_no_pairs(tmp_path):
    save(tmp_path, 3)
    loaded = load_bank(tmp_path, REGISTRY)
    assert not hasattr(loaded, "pairs")
    assert loaded.path == tmp_path


def test_concurrent_saves_to_one_directory_leave_a_whole_bank(tmp_path):
    bank, pairs = build_bank(50), build_pairs(50)
    for trial in range(20):
        target = tmp_path / f"bank_{trial}"
        target.mkdir()
        start = threading.Barrier(4)
        errors: list[BaseException] = []

        def save():
            start.wait()
            try:
                save_bank(bank, target, pairs)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=save) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert sorted(p.name for p in target.iterdir()) == [
            "pairs.jsonl", "strategies.jsonl"]
        loaded = load_bank(target, REGISTRY)
        assert loaded.strategies == bank.strategies
        assert list(read_pairs(target, REGISTRY)) == pairs


def test_save_writes_one_record_per_line(tmp_path):
    save(tmp_path, 3)
    for filename in ("strategies.jsonl", "pairs.jsonl"):
        lines = (tmp_path / filename).read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)


@pytest.mark.parametrize("filename", ["strategies.jsonl", "pairs.jsonl"])
def test_a_missing_bank_file_is_an_error(tmp_path, filename):
    save(tmp_path)
    (tmp_path / filename).unlink()
    with pytest.raises(FileNotFoundError, match=filename):
        load_and_recheck(tmp_path)


def test_missing_field_names_it(tmp_path):
    save(tmp_path)
    record = json.loads((tmp_path / "strategies.jsonl").read_text())
    del record["when_to_apply"]
    (tmp_path / "strategies.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.field == "when_to_apply"


def test_unknown_version_rejected(tmp_path):
    save(tmp_path)
    record = json.loads((tmp_path / "strategies.jsonl").read_text())
    record["compatibility_set"] = ["v9.99.9"]
    (tmp_path / "strategies.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.field == "compatibility_set"


@pytest.mark.parametrize("filename, key", [
    ("strategies.jsonl", "surprise"),
    ("strategies.jsonl", "member_pair_ids"),
    ("pairs.jsonl", "surprise"),
    ("pairs.jsonl", "short_verified"),
])
def test_unknown_key_rejected(tmp_path, filename, key):
    # An unknown key is added; a known one (each file's last field) dropped.
    save(tmp_path)
    path = tmp_path / filename
    record = json.loads(path.read_text())
    if key in record:
        del record[key]
    else:
        record[key] = 1
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.field == key


def test_empty_schema_field_rejected(tmp_path):
    save(tmp_path)
    record = json.loads((tmp_path / "strategies.jsonl").read_text())
    record["title"] = ""
    (tmp_path / "strategies.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.field == "title"


def test_bad_reduction_level_rejected(tmp_path):
    save(tmp_path)
    record = json.loads((tmp_path / "strategies.jsonl").read_text())
    record["potential_reduction"] = "huge"
    (tmp_path / "strategies.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.field == "potential_reduction"


@pytest.mark.parametrize("median", ["nan", "inf", "-inf"])
def test_non_finite_compile_reduction_rejected(tmp_path, median):
    # json writes these as NaN / Infinity / -Infinity, and reads them back.
    save(tmp_path)
    record = json.loads((tmp_path / "strategies.jsonl").read_text())
    record["median_compile_reduction"] = float(median)
    (tmp_path / "strategies.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.field == "median_compile_reduction"


@pytest.mark.parametrize("reduction", ["nan", "inf", "-inf", "7.5"])
def test_bad_pair_compile_reduction_rejected(tmp_path, reduction):
    # A NaN would be written back as non-standard JSON, and a median taken
    # from it would never pass recheck: NaN != NaN.
    save(tmp_path)
    record = json.loads((tmp_path / "pairs.jsonl").read_text())
    record["compile_reduction"] = float(reduction)
    (tmp_path / "pairs.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.field == "compile_reduction"


def test_schema_error_reports_line(tmp_path):
    save(tmp_path, 2)
    lines = (tmp_path / "strategies.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["potential_reduction"] = "huge"
    lines[1] = json.dumps(record)
    (tmp_path / "strategies.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.line == 2


WRONG_SHAPES = [
    ("strategies.jsonl", None, ["a", "list"]),
    ("pairs.jsonl", None, 7),
    ("pairs.jsonl", "source_corpus", ["competition"]),
]


@pytest.mark.parametrize("filename, field, value", WRONG_SHAPES)
def test_a_record_of_the_wrong_shape_is_a_schema_error(tmp_path, filename,
                                                        field, value):
    save(tmp_path)
    path = tmp_path / filename
    record = json.loads(path.read_text())
    if field is None:
        record = value
    else:
        record[field] = value
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert (err.value.field, err.value.line) == (field or "record", 1)


WRONG_TYPES = [
    ("strategies.jsonl", "id", [1]),
    ("strategies.jsonl", "title", 5),
    ("strategies.jsonl", "abstract_example", {"before": 5, "after": "x"}),
    ("strategies.jsonl", "member_pair_ids", 5),
    ("strategies.jsonl", "member_pair_ids", "p0000"),
    ("strategies.jsonl", "member_pair_ids", [[1]]),
    ("strategies.jsonl", "compatibility_set", 5),
    ("strategies.jsonl", "compatibility_set", "v4.16.0"),
    ("strategies.jsonl", "median_compile_reduction", "x"),
    ("strategies.jsonl", "median_compile_reduction", "0.5"),
    ("strategies.jsonl", "median_compile_reduction", [1]),
    ("strategies.jsonl", "median_compile_reduction", True),
    pytest.param("strategies.jsonl", "median_compile_reduction", -10 ** 400,
                 id="strategies.jsonl-median_compile_reduction-huge_int"),
    ("pairs.jsonl", "id", 5),
    ("pairs.jsonl", "long_proof", 5),
    ("pairs.jsonl", "version_status", []),
    ("pairs.jsonl", "grounded_spans", [5]),
    ("pairs.jsonl", "grounded_spans", "x"),
    ("pairs.jsonl", "grounded_spans", [{"strategy_id": "s0000",
                                        "line_start": 1.5, "line_end": 2}]),
    ("pairs.jsonl", "grounded_spans", [{"strategy_id": "s0000",
                                        "line_start": True, "line_end": 2}]),
    ("pairs.jsonl", "grounded_spans", [{"strategy_id": "s0000",
                                        "line_start": 1}]),
    ("pairs.jsonl", "compile_reduction", "x"),
    ("pairs.jsonl", "compile_reduction", "0.5"),
    ("pairs.jsonl", "long_verified", "yes"),
]


@pytest.mark.parametrize("filename, field, value", WRONG_TYPES)
def test_a_field_of_the_wrong_json_type_is_a_schema_error(tmp_path, filename,
                                                           field, value):
    save(tmp_path)
    path = tmp_path / filename
    record = json.loads(path.read_text())
    record[field] = value
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert (err.value.field, err.value.line) == (field, 1)


@pytest.mark.parametrize("filename", ["strategies.jsonl", "pairs.jsonl"])
def test_a_duplicate_id_is_a_schema_error(tmp_path, filename):
    save(tmp_path)
    path = tmp_path / filename
    path.write_text(path.read_text() * 2)
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert (err.value.field, err.value.line) == ("id", 2)


@pytest.mark.parametrize("filename, field, value", [
    ("strategies.jsonl", "potential_reduction", "huge"),
    ("pairs.jsonl", "compile_reduction", "x"),
])
def test_the_first_bad_line_wins(tmp_path, filename, field, value):
    # Records are streamed: line 2's schema error is raised before line 5
    # is read, so the JSON that does not parse there is never seen.
    save(tmp_path, 4)
    path = tmp_path / filename
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record)
    lines.append("{not json")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert (err.value.field, err.value.line) == (field, 2)


MISSING = object()  # a case value: the key is deleted from the record

# Every strategies.jsonl case of WRONG_SHAPES and WRONG_TYPES, the unknown
# and missing key, empty title and bad level cases, and a case for each
# other check of the strategy reader, in the order the reader makes them,
# each with the message it reports (line 1).
STRATEGY_REPORTS = [
    (None, ["a", "list"], "record must be a JSON object"),
    ("surprise", 1, "unknown key 'surprise'"),
    ("member_pair_ids", MISSING, "missing key 'member_pair_ids'"),
    ("id", [1], "'id' must be of type str"),
    ("title", 5, "'title' must be of type str"),
    ("title", "", "'title' must be non-empty"),
    ("when_to_apply", "", "'when_to_apply' must be non-empty"),
    ("potential_reduction", "huge",
     "potential_reduction must be one of ('high', 'medium', 'low')"),
    ("abstract_example", "x", "'abstract_example' must be of type dict"),
    ("abstract_example", {"before": 5, "after": "x"},
     "abstract_example needs 'before' and 'after'"),
    ("abstract_example", {"before": "a", "after": "b", "notes": "c"},
     "abstract_example needs 'before' and 'after'"),
    ("application_guide", {}, "'application_guide' must be of type list"),
    ("application_guide", [], "'application_guide' must be non-empty"),
    ("application_guide", ["step", 5],
     "application_guide must be a list of steps"),
    ("compatibility_set", 5, "'compatibility_set' must be of type list"),
    ("compatibility_set", "v4.16.0",
     "'compatibility_set' must be of type list"),
    ("compatibility_set", ["v4.16.0", "v9.99.9"],
     "unknown toolchain version 'v9.99.9'"),
    ("compatibility_set", [["v4.16.0"]],
     "unknown toolchain version ['v4.16.0']"),
    ("member_pair_ids", 5, "'member_pair_ids' must be of type list"),
    ("member_pair_ids", "p0000", "'member_pair_ids' must be of type list"),
    ("member_pair_ids", [[1]], "member_pair_ids must be a list of pair ids"),
    ("member_pair_ids", ["p0000", "p0001", "p0000"],
     "member_pair_ids lists 'p0000' twice"),
    ("member_pair_ids", ["", ""], "member_pair_ids lists '' twice"),
    *(("median_compile_reduction", value,
       "compile reduction must be a number or null")
      for value in ("x", "0.5", [1], True)),
    ("median_compile_reduction", -10 ** 400,
     "compile reduction must be finite"),
]


def test_strategy_reports_cover_the_strategy_schema_cases():
    listed = {(field, repr(value)) for field, value, _ in STRATEGY_REPORTS}
    for case in (*WRONG_SHAPES, *WRONG_TYPES):
        filename, field, value = getattr(case, "values", case)
        if filename == "strategies.jsonl":
            assert (field, repr(value)) in listed


def edited_record(*edits) -> object:
    record = make_strategy().to_dict()
    for field, value, _ in edits:
        if field is None:
            return value
        if value is MISSING:
            del record[field]
        else:
            record[field] = value
    return record


def report_id(i: int) -> str:
    return f"{STRATEGY_REPORTS[i][0] or 'record'}{i}"


@pytest.mark.parametrize("first, second", [
    *(pytest.param(case, None, id=report_id(i))
      for i, case in enumerate(STRATEGY_REPORTS)),
    *(pytest.param(STRATEGY_REPORTS[i], STRATEGY_REPORTS[j],
                   id=f"{report_id(i)}+{report_id(j)}")
      for i, j in itertools.combinations(range(len(STRATEGY_REPORTS)), 2)
      if None not in (STRATEGY_REPORTS[i][0], STRATEGY_REPORTS[j][0])
      and STRATEGY_REPORTS[i][0] != STRATEGY_REPORTS[j][0]),
])
def test_a_strategy_record_reports_its_first_bad_field(tmp_path, first,
                                                       second):
    # A record bad in two fields reports the one the reader checks first.
    save(tmp_path)
    edits = (first,) if second is None else (first, second)
    (tmp_path / "strategies.jsonl").write_text(
        json.dumps(edited_record(*edits)) + "\n")
    with pytest.raises(SchemaError) as err:
        load_bank(tmp_path, REGISTRY)
    field, _, message = first
    assert (err.value.field, err.value.line) == (field or "record", 1)
    assert str(err.value) == f"{message} (line 1) [field={field or 'record'}]"


def test_a_repeated_member_id_is_a_schema_error(tmp_path):
    # Counted twice, a repeated member would weigh twice in the median.
    save(tmp_path, 2)
    path = tmp_path / "strategies.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["member_pair_ids"] = ["p0001", "p0001", "p0000"]
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_bank(tmp_path, REGISTRY)
    assert (err.value.field, err.value.line) == ("member_pair_ids", 2)
    assert "'p0001'" in str(err.value)


def test_save_bank_refuses_a_repeated_member_id_before_writing(tmp_path):
    # load_bank would refuse the record, so save_bank writes nothing.
    bank = build_bank(2)
    bank.strategies["s0001"] = make_strategy(
        1, member_pair_ids=("p0001", "p0000", "p0001"))
    with pytest.raises(ValueError, match="'s0001' lists member 'p0001' twice"):
        save_bank(bank, tmp_path / "new", build_pairs(2))
    bank.strategies["s0001"] = make_strategy(1, member_pair_ids=("", ""))
    with pytest.raises(ValueError, match="'s0001' lists member '' twice"):
        save_bank(bank, tmp_path / "new", build_pairs(2))
    bank.strategies["s0001"] = make_strategy(
        1, member_pair_ids=("p0001", "p0000", "p0001"))
    assert not (tmp_path / "new").exists()
    save(tmp_path, 2)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()
              if p.is_file()}
    with pytest.raises(ValueError):
        save_bank(bank, tmp_path, build_pairs(2))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
            if p.is_file()} == before


def json_loads_records(path: Path, build):
    """The record reader with ``json.loads`` decoding every line."""
    seen: set[str] = set()
    with path.open("r", encoding="utf-8", newline="\n") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip(" \t\r\n")
            if not raw:
                continue
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


def object_with_id(record, line):
    if not (isinstance(record, dict) and isinstance(record.get("id"), str)):
        raise SchemaError("record must be an object with an id",
                          field="record", line=line)
    return record


def outcome(read, path):
    """What a reader gives: the repr of its records, or its error."""
    try:
        return repr(list(read(path, object_with_id)))
    except SchemaError as exc:
        return ("SchemaError", str(exc), exc.field, exc.line)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@st.composite
def record_lines(draw):
    """One line: a record (NaN and Infinity included), or one truncated,
    with trailing data, behind a BOM, a non-object, or no JSON at all."""
    record = draw(st.dictionaries(st.text(max_size=3), json_values,
                                  max_size=3))
    record["id"] = draw(st.sampled_from(["a", "b", "c", "d"]))
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(["valid", "valid", "truncated", "trailing",
                                 "bom", "non_object", "text"]))
    if kind == "truncated":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif kind == "trailing":
        line += draw(st.sampled_from([" x", "}", " {}", ",", "]", " 1",
                                      "\t\"s\""]))
    elif kind == "bom":
        line = "\ufeff" + line
    elif kind == "non_object":
        line = json.dumps(draw(json_values))
    elif kind == "text":
        line = draw(st.text(alphabet='{}[]":,0.1eE-+ aNInfinity\\\t\r',
                            max_size=12))
    return line


@settings(max_examples=300, deadline=None)
@given(st.lists(record_lines(), max_size=5))
def test_record_decoding_equals_json_loads(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        assert outcome(_read_records, path) == outcome(json_loads_records,
                                                       path)


@pytest.mark.parametrize("filename", ["strategies.jsonl", "pairs.jsonl"])
def test_a_bare_carriage_return_is_whitespace_inside_a_record(tmp_path,
                                                               filename):
    # Only "\n" ends a record; a bare "\r" between tokens is JSON whitespace
    # and must neither split the record nor shift later line numbers.
    save(tmp_path, 2)
    path = tmp_path / filename
    first, second = path.read_text().splitlines()
    first = first.replace(", ", ",\r ", 1)
    path.write_bytes(f"{first}\n{second}\n".encode())
    assert load_bank(tmp_path, REGISTRY).strategies == build_bank(2).strategies
    assert list(read_pairs(tmp_path, REGISTRY)) == build_pairs(2)
    assert load_and_recheck(tmp_path) == []
    path.write_bytes(f"{first}\n{{not json\n".encode())
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert (err.value.field, err.value.line) == ("record", 2)


@pytest.mark.parametrize("filename, field, value", [
    ("strategies.jsonl", "potential_reduction", "huge"),
    ("pairs.jsonl", "compile_reduction", "x"),
])
def test_crlf_endings_report_the_line_lf_endings_do(tmp_path, filename, field,
                                                    value):
    save(tmp_path, 4)
    path = tmp_path / filename
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record[field] = value
    lines[2] = json.dumps(record)
    raised = []
    for ending in ("\n", "\r\n"):
        path.write_bytes(ending.join(lines + [""]).encode())
        with pytest.raises(SchemaError) as err:
            load_and_recheck(tmp_path)
        raised.append((str(err.value), err.value.field, err.value.line))
    assert raised[0] == raised[1]
    assert raised[0][1:] == (field, 3)


@pytest.mark.parametrize("filename", ["strategies.jsonl", "pairs.jsonl"])
@pytest.mark.parametrize("pad", ["\x0c", "\xa0", "\u2028", "\u3000"],
                         ids=["form_feed", "no_break_space", "line_separator",
                              "ideographic_space"])
@pytest.mark.parametrize("where", ["before", "after", "alone"])
def test_a_line_padded_with_non_json_whitespace_is_a_schema_error(
        tmp_path, filename, pad, where):
    # JSON whitespace is " \t\r\n" alone: json.loads refuses a record
    # padded with any other, and a line of nothing else is not blank.
    save(tmp_path, 2)
    path = tmp_path / filename
    first, second = path.read_text(encoding="utf-8").splitlines()
    lines = {"before": [first, pad + second], "after": [first, second + pad],
             "alone": [first, pad, second]}[where]
    path.write_bytes("\n".join(lines + [""]).encode("utf-8"))
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert (err.value.field, err.value.line) == ("record", 2)


@pytest.mark.parametrize("filename", ["strategies.jsonl", "pairs.jsonl"])
@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80"],
                         ids=["ff", "cut_sequence", "encoded_surrogate"])
@pytest.mark.parametrize("where", ["in_a_string", "alone"])
def test_a_byte_that_is_not_utf8_is_a_schema_error_on_its_line(
        tmp_path, filename, bad, where):
    save(tmp_path, 3)
    path = tmp_path / filename
    lines = path.read_bytes().split(b"\n")
    if where == "alone":
        lines.insert(1, bad)
    else:
        lines[1] = lines[1].replace(b'"id": "', b'"id": "' + bad, 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert (err.value.field, err.value.line) == ("record", 2)
    assert str(err.value).startswith("invalid UTF-8: ")


def test_read_pairs_yields_line_one_before_it_raises_for_line_two(tmp_path):
    save(tmp_path, 2)
    path = tmp_path / "pairs.jsonl"
    first = path.read_text().splitlines()[0]
    path.write_text(first + "\n{not json\n")
    stream = read_pairs(tmp_path, REGISTRY)
    assert next(stream) == make_pair(0)
    with pytest.raises(SchemaError) as err:
        next(stream)
    assert (err.value.field, err.value.line) == ("record", 2)


def test_a_load_holds_each_closed_set_value_once(tmp_path):
    compat = [frozenset({"v4.16.0"}), frozenset({"v4.16.0", "v4.22.0"})]
    strategies = {s.id: s for s in (
        make_strategy(i, compatibility_set=compat[i % 2],
                      potential_reduction=REDUCTION_LEVELS[i % 3])
        for i in range(6))}
    save_bank(Bank(strategies=strategies, registry=REGISTRY), tmp_path,
              build_pairs(3))
    loaded = load_bank(tmp_path, REGISTRY)
    pairs = list(read_pairs(tmp_path, REGISTRY))
    sets = [s.compatibility_set for s in loaded.strategies.values()]
    assert sets == [compat[i % 2] for i in range(6)]
    assert len({id(s) for s in sets}) == 2
    registered = {id(v) for v in REGISTRY.versions}
    assert {id(v) for s in sets for v in s} <= registered
    levels = {id(level) for level in REDUCTION_LEVELS}
    assert {id(s.potential_reduction)
            for s in loaded.strategies.values()} <= levels
    statuses = {id(status) for status in VERSION_STATUSES}
    for pair in pairs:
        assert {id(v) for v in pair.version_status} <= registered
        assert {id(s) for s in pair.version_status.values()} <= statuses
    assert len({id(p.source_corpus) for p in pairs}) == 1


def test_pair_span_outside_proof_rejected(tmp_path):
    save_bank(Bank(registry=REGISTRY), tmp_path, [make_pair(0)])
    record = json.loads((tmp_path / "pairs.jsonl").read_text())
    record["grounded_spans"][0]["line_end"] = 99
    (tmp_path / "pairs.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_and_recheck(tmp_path)
    assert err.value.field == "grounded_spans"


def with_field(field, value):
    """An edit of a one-record file: ``record[field] = value``, or the
    whole record replaced by ``value`` when ``field`` is None."""
    def edit(text):
        record = json.loads(text)
        if field is None:
            record = value
        else:
            record[field] = value
        return json.dumps(record) + "\n"
    return edit


def span_past_the_proof(text):
    record = json.loads(text)
    record["grounded_spans"][0]["line_end"] = 99
    return json.dumps(record) + "\n"


# Every pairs.jsonl case of the schema tests above, then blank and
# whitespace-only lines before a bad record or a repeated one.
PAIR_FILE_EDITS = [
    *(pytest.param(with_field(field, value), id=f"shape-{field}-{i}")
      for i, (filename, field, value) in enumerate(WRONG_SHAPES)
      if filename == "pairs.jsonl"),
    *(pytest.param(with_field(field, value), id=f"type-{field}-{i}")
      for i, (filename, field, value) in enumerate(WRONG_TYPES)
      if filename == "pairs.jsonl"),
    pytest.param(lambda text: text * 2, id="duplicate"),
    pytest.param(span_past_the_proof, id="span_outside_proof"),
    pytest.param(lambda text: "\n  \n" + text + "\t\n\n{not json\n",
                 id="blank_lines_then_bad_json"),
    pytest.param(lambda text: " \n" + text + "\n \t \n" + text,
                 id="blank_lines_then_duplicate"),
    # Written through surrogateescape: "\udcff" is the byte 0xff.
    pytest.param(lambda text: text + text.replace("synthetic", "synth\udcff"),
                 id="byte_not_utf8"),
]


@pytest.mark.parametrize("edit", PAIR_FILE_EDITS)
def test_both_pair_readers_raise_the_same_schema_error(tmp_path, edit):
    save(tmp_path)
    path = tmp_path / "pairs.jsonl"
    path.write_bytes(edit(path.read_text()).encode("utf-8", "surrogateescape"))
    with pytest.raises(SchemaError) as streamed:
        list(read_pairs(tmp_path, REGISTRY))
    with pytest.raises(SchemaError) as rechecked:
        load_and_recheck(tmp_path)
    streamed, rechecked = ((str(err.value), err.value.field, err.value.line)
                           for err in (streamed, rechecked))
    assert streamed == rechecked
    assert streamed[2] == path.read_bytes().count(b"\n")


def test_both_pair_readers_skip_blank_lines(tmp_path):
    save(tmp_path, 2)
    path = tmp_path / "pairs.jsonl"
    first, second = path.read_text().splitlines()
    path.write_text(f"\n   \n{first}\n\t\n\n{second}\n \n")
    assert list(read_pairs(tmp_path, REGISTRY)) == build_pairs(2)
    assert load_and_recheck(tmp_path) == []


def test_registry_rejects_duplicate_versions():
    with pytest.raises(SchemaError):
        ToolchainRegistry(entries=(("v1", "/a"), ("v1", "/b")))


def test_registry_membership():
    for version in REGISTRY.versions:
        assert version in REGISTRY
    assert "v0.0.0" not in REGISTRY
    assert ["v4.16.0"] not in REGISTRY  # unhashable: no version
    assert "v4.16.0" not in ToolchainRegistry(entries=())


def test_registry_unknown_version():
    with pytest.raises(UnknownVersion):
        REGISTRY.root_for("v0.0.0")


def test_registry_reads_its_file(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"schema_version": 1, "toolchains": [
        {"version": v, "root": r} for v, r in REGISTRY.entries]}))
    assert ToolchainRegistry.from_file(path) == REGISTRY


@pytest.mark.parametrize("text, field", [
    ('{"toolchains": [', "record"),
    (json.dumps({"toolchains": 5}), "toolchains"),
    (json.dumps({"toolchains": [5]}), "toolchains"),
    (json.dumps({"toolchains": [{"version": "v1"}]}), "toolchains"),
    (json.dumps({"toolchains": [{"version": ["x"], "root": "/r"}]}), "version"),
    (json.dumps({"toolchains": [{"version": 4, "root": "/r"}]}), "version"),
    (json.dumps({"toolchains": [{"version": "", "root": "/r"}]}), "version"),
    (json.dumps({"toolchains": [{"version": "v1", "root": 5}]}), "root"),
    (json.dumps({"toolchains": [{"version": "v1", "root": ""}]}), "root"),
    ('{"toolchains": [{"version": "v\udcff", "root": "/r"}]}', "record"),
], ids=["invalid_json", "not_a_list", "entry_not_an_object", "no_root",
        "version_a_list", "version_a_number", "version_empty",
        "root_a_number", "root_empty", "byte_not_utf8"])
def test_registry_file_with_a_bad_field_is_a_schema_error(tmp_path, text,
                                                          field):
    path = tmp_path / "registry.json"
    # surrogateescape: "\udcff" is written as the byte 0xff.
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(SchemaError) as raised:
        ToolchainRegistry.from_file(path)
    assert raised.value.field == field
    assert f"[field={field}]" in str(raised.value)


# --- metadata recheck ---------------------------------------------------------

def test_recheck_clean_bank_reports_nothing(tmp_path):
    save(tmp_path, 3)
    assert load_and_recheck(tmp_path) == []


def test_recheck_flags_tampered_median(tmp_path):
    bank = build_bank(3)
    bank.strategies["s0001"] = make_strategy(1, median_compile_reduction=0.99)
    save_bank(bank, tmp_path, build_pairs(3))
    found = load_and_recheck(tmp_path)
    assert len(found) == 1
    assert found[0].strategy_id == "s0001"
    assert found[0].field == "median_compile_reduction"


def test_recheck_needs_the_banks_directory():
    with pytest.raises(ValueError, match="no path"):
        recheck(build_bank(1))


def test_expected_metadata_absent_without_profiles():
    pair = make_pair(0, compile_reduction=None, version_status={})
    strategy = make_strategy(0, median_compile_reduction=None,
                             compatibility_set=frozenset())
    median, compat = expected_metadata(strategy, evidence([pair]))
    assert median is None
    assert compat == frozenset()


def test_expected_metadata_skips_untested_members():
    p0 = make_pair(0, version_status={"v4.16.0": "compiles", "v4.22.0": "compiles"})
    p1 = make_pair(1, version_status={})  # never version-tested
    strategy = make_strategy(0, member_pair_ids=("p0000", "p0001"))
    _, compat = expected_metadata(strategy, evidence([p0, p1]))
    assert compat == frozenset({"v4.16.0", "v4.22.0"})


def reference_metadata(members: list[dict]) -> tuple[float | None, list[str]]:
    """The metadata rule by brute force over written pair records: sort and
    pick the median, intersect the tested members' versions one by one."""
    values = sorted(m["compile_reduction"] for m in members
                    if m["compile_reduction"] is not None)
    n = len(values)
    median = (None if n == 0 else values[n // 2] if n % 2
              else (values[n // 2 - 1] + values[n // 2]) / 2)
    compat = None
    for m in members:
        status = m["version_status"]
        if any(verdict != "untested" for verdict in status.values()):
            on = {v for v, verdict in status.items() if verdict == "compiles"}
            compat = on if compat is None else compat & on
    return median, sorted(compat or ())


def reference_recheck(root: Path) -> list[Discrepancy]:
    """``recheck`` by brute force over the records written under ``root``."""
    def records(name):
        return [json.loads(line)
                for line in (root / name).read_text().splitlines()]

    pairs = {r["id"]: r for r in records("pairs.jsonl")}
    out = []
    for s in records("strategies.jsonl"):
        median, compat = reference_metadata(
            [pairs[pid] for pid in s["member_pair_ids"] if pid in pairs])
        if s["median_compile_reduction"] != median:
            out.append(Discrepancy(s["id"], "median_compile_reduction",
                                   s["median_compile_reduction"], median))
        if sorted(s["compatibility_set"]) != compat:
            out.append(Discrepancy(s["id"], "compatibility_set",
                                   sorted(s["compatibility_set"]), compat))
    return out


REDUCTIONS = st.none() | st.floats(min_value=-5, max_value=1, allow_nan=False)
VERSION_SETS = st.sets(st.sampled_from(REGISTRY.versions))


@st.composite
def written_banks(draw) -> tuple[Bank, list[ProofPair]]:
    """Pairs with drawn reductions and statuses, and strategies over them
    (one member id has no pair) whose metadata is right or tampered."""
    pairs = [make_pair(i, compile_reduction=draw(REDUCTIONS),
                       version_status=draw(st.dictionaries(
                           st.sampled_from(REGISTRY.versions),
                           st.sampled_from(VERSION_STATUSES))))
             for i in range(draw(st.integers(0, 6)))]
    records = {p.id: p.to_dict() for p in pairs}
    ids = sorted(records) + ["p9999"]
    strategies = {}
    for i in range(draw(st.integers(0, 5))):
        members = draw(st.lists(st.sampled_from(ids), unique=True, max_size=4))
        median, compat = reference_metadata(
            [records[pid] for pid in members if pid in records])
        if draw(st.booleans()):
            median = draw(REDUCTIONS)
        if draw(st.booleans()):
            compat = draw(VERSION_SETS)
        strategies[f"s{i:04d}"] = make_strategy(
            i, member_pair_ids=tuple(members), median_compile_reduction=median,
            compatibility_set=frozenset(compat))
    return Bank(strategies=strategies, registry=REGISTRY), pairs


@given(written_banks())
@settings(max_examples=150, deadline=None)
def test_recheck_matches_a_brute_force_reference(written):
    bank, pairs = written
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_bank(bank, root, pairs)
        assert load_and_recheck(root) == reference_recheck(root)


def test_a_loaded_bank_holds_strategies_and_recheck_streams_pairs(tmp_path):
    # 200 pairs of about 10 kB of proof text each; 20 strategies of 10.
    body = "\n".join(f"  have h{j} : a + {j} = {j} + a := by omega"
                     for j in range(250))
    pairs = [make_pair(i, long_proof=f"{body}\n  exact h{i % 250}")
             for i in range(200)]
    bank = Bank(strategies={s.id: s for s in (
        make_strategy(i, member_pair_ids=tuple(p.id for p in pairs[10 * i:][:10]))
        for i in range(20))}, registry=REGISTRY)
    save_bank(bank, tmp_path, pairs)
    size = (tmp_path / "pairs.jsonl").stat().st_size
    assert size >= 2 * 2**20
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_bank(tmp_path, REGISTRY)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        found = recheck(loaded)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert found == []
    assert held < size / 4
    assert peak < size / 4


def test_content_ids_are_stable():
    a = pair_id_for("s", "l", "p")
    assert a == pair_id_for("s", "l", "p") and len(a) == 12
    assert pair_id_for("s", "l", "q") != a


# --- randomized round trip (property form of criterion 9) ---------------------

def random_bank(rng: random.Random) -> tuple[Bank, list[ProofPair]]:
    versions = list(REGISTRY.versions)
    n = rng.randint(0, 5)
    pairs = {}
    strategies = {}
    for i in range(n):
        pid = f"p{rng.randrange(10**8):08d}"
        n_lines = rng.randint(1, 6)
        long_proof = "\n".join(f"step {j}" for j in range(n_lines))
        status_opts = ["compiles", "fails", "untested"]
        pairs[pid] = ProofPair(
            id=pid,
            statement=f"theorem r{i} : Q",
            long_proof=long_proof,
            short_proof="simp",
            source_corpus=rng.choice(["mathlib", "competition", "synthetic"]),
            compile_reduction=rng.choice([None, round(rng.uniform(-2, 1), 6)]),
            version_status={v: rng.choice(status_opts)
                            for v in rng.sample(versions, rng.randint(0, 3))},
            grounded_spans=tuple(
                ("s-link", 1, rng.randint(1, n_lines))
                for _ in range(rng.randint(0, 2))
            ),
            long_verified=rng.random() < 0.9,
            short_verified=rng.random() < 0.9,
        )
    for i in range(rng.randint(0, 5)):
        sid = f"s{rng.randrange(10**8):08d}"
        strategies[sid] = Strategy(
            id=sid,
            title=f"pattern {i}",
            description=f"desc {rng.random():.6f}",
            when_to_apply=f"when {i}",
            application_guide=tuple(f"step {j}" for j in range(rng.randint(1, 4))),
            abstract_example=(f"before {i}", f"after {i}"),
            potential_reduction=rng.choice(["high", "medium", "low"]),
            median_compile_reduction=rng.choice([None, round(rng.uniform(-2, 1), 6)]),
            compatibility_set=frozenset(rng.sample(versions, rng.randint(0, 3))),
            member_pair_ids=tuple(rng.sample(sorted(pairs), min(len(pairs), 2))),
        )
    return Bank(strategies=strategies, registry=REGISTRY), list(pairs.values())


def test_round_trip_identity_randomized(tmp_path):
    rng = random.Random(7)
    for i in range(200):
        bank, pairs = random_bank(rng)
        target = tmp_path / f"bank_{i}"
        save_bank(bank, target, pairs)
        loaded = load_bank(target, REGISTRY)
        assert loaded.strategies == bank.strategies
        assert list(read_pairs(target, REGISTRY)) == pairs
