"""Compiler port tests: parsers, heartbeat wrapper, scripted mock, and the
shared core's measurement rule."""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from prooftidy.compiler import (
    CompileRequest,
    CompileResult,
    Diagnostic,
    LeanCompiler,
    MockCompiler,
    Verdict,
    heartbeat_wrapper,
    parse_diagnostics,
    parse_heartbeats,
    parse_profile_categories,
    split_profile_times,
)
from prooftidy.errors import HeartbeatParseError, ProfileParseError, ScriptExhausted

from test_bank import REGISTRY

FIXTURES = Path(__file__).parent / "fixtures"


# --- diagnostics parsing ------------------------------------------------------

def test_parse_standard_diagnostic():
    out = "Main.lean:3:5: error: unknown identifier 'foo'\n"
    (d,) = parse_diagnostics(out)
    assert d == Diagnostic(3, 5, "error", "unknown identifier 'foo'")


def test_parse_multiline_message():
    out = ("Main.lean:2:0: error: type mismatch\n"
           "  expected Nat\n"
           "  got Int\n"
           "Main.lean:9:4: warning: unused variable\n")
    diagnostics = parse_diagnostics(out)
    assert len(diagnostics) == 2
    assert "expected Nat" in diagnostics[0].message
    assert diagnostics[1].severity == "warning"


def test_parse_ignores_unrelated_lines():
    assert parse_diagnostics("building...\ndone\n") == []


# --- profile parsing ----------------------------------------------------------

def test_profile_transcript_fixture_splits_import():
    raw = (FIXTURES / "profile_transcript_a.txt").read_text()
    categories = parse_profile_categories(raw)
    import_time, elaboration = split_profile_times(categories, wall_total=2.0)
    assert import_time == pytest.approx(1.20)
    assert elaboration == pytest.approx(0.80)


def test_profile_units_converted():
    raw = "cumulative profiling times:\n\tparsing 11.1ms\n\timport 1.5s\n"
    categories = parse_profile_categories(raw)
    assert categories["parsing"] == pytest.approx(0.0111)
    assert categories["import"] == pytest.approx(1.5)


def test_profile_parse_error_keeps_raw_output():
    with pytest.raises(ProfileParseError) as err:
        parse_profile_categories("no timings here")
    assert err.value.raw_output == "no timings here"


def test_split_clamps_elaboration_at_zero():
    _, elaboration = split_profile_times({"import": 3.0}, wall_total=2.5)
    assert elaboration == 0.0


# --- heartbeats ----------------------------------------------------------------

def test_heartbeat_wrapper_is_byte_exact():
    wrapped = heartbeat_wrapper("theorem t : True := trivial")
    assert wrapped == ("set_option Elab.async false in\n"
                       "#count_heartbeats in\n"
                       "theorem t : True := trivial")


def test_heartbeat_count_parsed():
    out = "Main.lean:1:0: info: Used 36300 heartbeats, which is less than the current maximum of 200000\n"
    assert parse_heartbeats(out) == 36300


def test_heartbeat_missing_count_raises():
    with pytest.raises(HeartbeatParseError):
        parse_heartbeats("info: nothing to see")


# --- scripted mock ---------------------------------------------------------------

def ok_entry(wall=None, import_time=None, heartbeats=None):
    elaboration = None if wall is None else wall - import_time
    return CompileResult(Verdict.SUCCESS, wall_time_total=wall,
                         import_time=import_time, elaboration_time=elaboration,
                         heartbeats=heartbeats)


def fail_entry(line, col, message):
    return CompileResult(Verdict.FAILURE,
                         diagnostics=(Diagnostic(line, col, "error", message),))


def request(source, version="v4.24.0"):
    return CompileRequest(source=source, toolchain_version=version)


def test_mock_scripted_success():
    compiler = MockCompiler(sequence=[ok_entry()])
    result = compiler.check(request("theorem t : True := trivial"))
    assert result.verdict == Verdict.SUCCESS
    assert result.diagnostics == ()


def test_mock_scripted_failure_diagnostic():
    compiler = MockCompiler(sequence=[fail_entry(3, 5, "unknown identifier")])
    result = compiler.check(request("bad"))
    assert result.verdict == Verdict.FAILURE
    assert result.diagnostics[0] == Diagnostic(3, 5, "error", "unknown identifier")


def test_mock_by_hash_is_pure_function_of_source():
    source = "theorem a : True := trivial"
    compiler = MockCompiler(by_source={source: ok_entry()},
                            sequence=[fail_entry(1, 0, "boom")])
    first = compiler.check(request(source))
    second = compiler.check(request(source))
    assert first == second == ok_entry()
    assert compiler.check(request("other")).verdict == Verdict.FAILURE
    assert compiler.calls == [("v4.24.0", source)] * 2 + [("v4.24.0", "other")]


def test_mock_exhausted_script_raises():
    compiler = MockCompiler(sequence=[ok_entry()])
    compiler.check(request("a"))
    with pytest.raises(ScriptExhausted):
        compiler.check(request("b"))


def test_mock_profile_constant_times_zero_std():
    source = "theorem t : True := trivial"
    compiler = MockCompiler(by_source={
        source: ok_entry(wall=2.0, import_time=0.5)})
    result = compiler.profile(request(source), runs=5)
    assert result.elaboration_time == pytest.approx(1.5)
    assert result.elaboration_samples == (1.5,) * 5
    assert result.wall_samples == (2.0,) * 5


def test_mock_profile_means_import_time_with_the_wall_time():
    compiler = MockCompiler(sequence=[ok_entry(wall=2.0, import_time=0.5),
                                      ok_entry(wall=3.0, import_time=1.5)])
    result = compiler.profile(request("x"), runs=2)
    assert result.wall_time_total == pytest.approx(2.5)
    assert result.import_time == pytest.approx(1.0)
    assert result.import_time + result.elaboration_time == pytest.approx(
        result.wall_time_total)


def test_mock_profile_stops_at_a_failed_run():
    compiler = MockCompiler(sequence=[fail_entry(1, 0, "boom"), ok_entry()])
    assert compiler.profile(request("x"), runs=2).verdict == Verdict.FAILURE
    assert compiler.check(request("y")).verdict == Verdict.SUCCESS


@pytest.mark.parametrize("runs", [0, -1])
def test_mock_profile_rejects_fewer_than_one_run(runs):
    compiler = MockCompiler(sequence=[ok_entry()])
    with pytest.raises(ValueError):
        compiler.profile(request("x"), runs=runs)
    assert compiler.calls == []


def test_mock_heartbeats_scripted():
    decl = "theorem t : True := trivial"
    compiler = MockCompiler(by_source={
        heartbeat_wrapper(decl): ok_entry(heartbeats=36300)})
    result = compiler.count_heartbeats(request(decl))
    assert result.heartbeats == 36300


def test_mock_cross_version_matrix():
    source = "theorem t : True := trivial"
    compiler = MockCompiler(by_version={
        "v4.16.0": {source: ok_entry()},
        "v4.14.0": {source: fail_entry(1, 0, "removed API")},
    })
    matrix = compiler.cross_version_matrix(
        source, ["v4.16.0", "v4.14.0"])
    assert matrix == {"v4.16.0": Verdict.SUCCESS, "v4.14.0": Verdict.FAILURE}


def test_mock_matrix_single_version():
    source = "x"
    compiler = MockCompiler(by_version={"v4.22.0": {source: ok_entry()}})
    matrix = compiler.cross_version_matrix(source, ["v4.22.0"])
    assert matrix == {"v4.22.0": Verdict.SUCCESS}


def test_mock_matrix_missing_environment_does_not_abort():
    source = "x"
    compiler = MockCompiler(by_version={
        "v4.16.0": {source: ok_entry()},
        "v4.22.0": {source: CompileResult(Verdict.ENVIRONMENT_ERROR)},
    })
    matrix = compiler.cross_version_matrix(
        source, ["v4.16.0", "v4.99.0", "v4.22.0"])
    assert matrix["v4.16.0"] == Verdict.SUCCESS
    assert matrix["v4.99.0"] == Verdict.ENVIRONMENT_ERROR  # nothing scripted
    assert matrix["v4.22.0"] == Verdict.ENVIRONMENT_ERROR  # scripted as such


# --- both backends, with their compile run stubbed -----------------------------

@pytest.mark.parametrize("make", [
    lambda: LeanCompiler(REGISTRY, max_concurrent=3),
    lambda: MockCompiler(),
], ids=["lean", "mock"])
def test_measurements_run_with_no_check_beside_them(make):
    compiler = make()
    lock = threading.Lock()
    running: list[str] = []
    overlaps: list[list[str]] = []

    def fake_run(req):
        kind = ("profile" if req.want_profile
                else "heartbeats" if req.want_heartbeats else "check")
        with lock:
            running.append(kind)
            if len(running) > 1 and any(k != "check" for k in running):
                overlaps.append(list(running))
        time.sleep(0.002)
        with lock:
            running.remove(kind)
        return CompileResult(Verdict.SUCCESS, wall_time_total=1.0,
                             import_time=0.5, elaboration_time=0.5,
                             heartbeats=7)

    compiler._run = fake_run
    stop = threading.Event()

    def keep_checking():
        while not stop.is_set():
            compiler.check(request("theorem t : True := trivial"))

    checkers = [threading.Thread(target=keep_checking) for _ in range(4)]
    for thread in checkers:
        thread.start()
    try:
        time.sleep(0.01)
        for _ in range(3):
            assert compiler.profile(request("x"), runs=3).wall_samples == (1.0,) * 3
            assert compiler.count_heartbeats(request("x")).heartbeats == 7
    finally:
        stop.set()
        for thread in checkers:
            thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in checkers)
    assert overlaps == []
