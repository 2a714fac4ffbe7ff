"""Strategy bank: the metadata rule, persistence round trip, schema validation,
and the streamed recheck of the member pairs."""

from __future__ import annotations

import json
import random
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
    expected_metadata,
    load_bank,
    pair_id_for,
    read_pairs,
    recheck,
    save_bank,
    strategy_id_for,
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
    return {p.id: PairEvidence.of(p) for p in pairs}


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


@pytest.mark.parametrize("filename, field, value", [
    ("strategies.jsonl", None, ["a", "list"]),
    ("pairs.jsonl", None, 7),
    ("pairs.jsonl", "source_corpus", ["competition"]),
])
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


@pytest.mark.parametrize("filename, field, value", [
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
])
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


def test_registry_round_trip(tmp_path):
    path = tmp_path / "registry.json"
    REGISTRY.to_file(path)
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
], ids=["invalid_json", "not_a_list", "entry_not_an_object", "no_root",
        "version_a_list", "version_a_number", "version_empty",
        "root_a_number", "root_empty"])
def test_registry_file_with_a_bad_field_is_a_schema_error(tmp_path, text,
                                                          field):
    path = tmp_path / "registry.json"
    path.write_text(text, encoding="utf-8")
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
    a = strategy_id_for("t", "d", "w")
    b = strategy_id_for("t", "d", "w")
    assert a == b and len(a) == 12
    assert strategy_id_for("t", "d", "x") != a
    assert pair_id_for("s", "l", "p") == pair_id_for("s", "l", "p")


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
