"""Compiler port tests: parsers, heartbeat wrapper, scripted mock, and the
shared core's rules for checks and measurements."""

from __future__ import annotations

import errno
import os
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prooftidy import compiler as compiler_module
from prooftidy.bank import ToolchainRegistry
from prooftidy.compiler import (
    HEARTBEAT_DIRECTIVES,
    PROFILE_RUNS,
    SCRATCH_DIR_NAME,
    CompileRequest,
    CompileResult,
    Diagnostic,
    LeanCompiler,
    MockCompiler,
    Verdict,
    heartbeat_wrapper,
    parse_diagnostics,
    parse_heartbeats,
    parse_profile_times,
)
from prooftidy.errors import (
    HeartbeatParseError,
    ProfileParseError,
    ScriptExhausted,
    ToolchainMissing,
)

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


def three_exit_parse(output: str) -> list[Diagnostic]:
    """An earlier ``parse_diagnostics``, which built a record at each of
    three exits: a new header, a line that ends the record, the end."""
    diagnostics: list[Diagnostic] = []
    current: dict | None = None
    for line in output.splitlines():
        m = compiler_module._DIAGNOSTIC_RE.match(line)
        if m:
            if current:
                diagnostics.append(Diagnostic(**current))
            current = {
                "line": int(m.group("line")),
                "column": int(m.group("col")),
                "severity": m.group("severity"),
                "message": m.group("message"),
            }
        elif current is not None and (line.startswith(" ") or line.startswith("\t")):
            current["message"] += "\n" + line
        elif current is not None:
            diagnostics.append(Diagnostic(**current))
            current = None
    if current:
        diagnostics.append(Diagnostic(**current))
    return diagnostics


TEXT = st.text(alphabet="ab :\t", max_size=6)
COMPILER_LINES = st.one_of(
    st.builds("{}:{}:{}: {}: {}".format,
              st.sampled_from(["Main.lean", "/tmp/x/Main.lean", "A B.lean"]),
              st.integers(0, 99), st.integers(0, 99),
              st.sampled_from(["error", "warning", "info"]), TEXT),
    st.builds("{}{}".format, st.sampled_from([" ", "  ", "\t"]), TEXT),
    st.sampled_from(["", " ", "building...", "Main.lean:3: error: x",
                     ":1:2: error: x", "Main.lean:1:2: note: x"]),
)


@given(st.lists(COMPILER_LINES, max_size=12), st.sampled_from(["\n", "\r\n"]))
def test_parse_diagnostics_equals_the_three_exit_parse(lines, ending):
    output = ending.join(lines)
    assert parse_diagnostics(output) == three_exit_parse(output)


# --- profile parsing ----------------------------------------------------------

def test_profile_transcript_fixture_splits_import():
    raw = (FIXTURES / "profile_transcript_a.txt").read_text()
    import_time, elaboration = parse_profile_times(raw, wall_total=2.0)
    assert import_time == pytest.approx(1.20)
    assert elaboration == pytest.approx(0.80)


def test_profile_units_converted():
    raw = ("cumulative profiling times:\n\tparsing 1.5s\n\timport 250ms\n"
           "\timport olean 0.01min\n")
    assert parse_profile_times(raw, wall_total=2.0) == pytest.approx((0.85, 1.15))


def test_profile_parse_error_keeps_raw_output():
    with pytest.raises(ProfileParseError) as err:
        parse_profile_times("no timings here", wall_total=1.0)
    assert err.value.raw_output == "no timings here"


def test_profile_header_with_no_category_line_is_a_parse_error():
    raw = "cumulative profiling times:\nelaboration took 12ms\n"
    with pytest.raises(ProfileParseError, match="section is empty") as err:
        parse_profile_times(raw, wall_total=1.0)
    assert err.value.raw_output == raw


def test_split_clamps_elaboration_at_zero():
    raw = "cumulative profiling times:\n\timport 3s\n"
    assert parse_profile_times(raw, wall_total=2.5) == (3.0, 0.0)


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
    assert parse_heartbeats("info: nothing to see") is None


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
    result = compiler.profile(request(source))
    assert result.elaboration_time == pytest.approx(1.5)
    assert result.wall_time_total == pytest.approx(2.0)
    assert compiler.calls == [("v4.24.0", source)] * PROFILE_RUNS


def test_mock_profile_means_import_time_with_the_wall_time():
    compiler = MockCompiler(sequence=[
        ok_entry(wall=float(wall), import_time=wall / 4)
        for wall in range(1, PROFILE_RUNS + 1)])
    result = compiler.profile(request("x"))
    assert result.wall_time_total == pytest.approx((PROFILE_RUNS + 1) / 2)
    assert result.import_time == pytest.approx((PROFILE_RUNS + 1) / 8)
    assert result.import_time + result.elaboration_time == pytest.approx(
        result.wall_time_total)


def test_mock_profile_stops_at_a_failed_run():
    compiler = MockCompiler(sequence=[fail_entry(1, 0, "boom"), ok_entry()])
    assert compiler.profile(request("x")).verdict == Verdict.FAILURE
    assert compiler.check(request("y")).verdict == Verdict.SUCCESS


def test_mock_heartbeats_scripted():
    decl = "theorem t : True := trivial"
    compiler = MockCompiler(by_source={
        heartbeat_wrapper(decl): ok_entry(heartbeats=36300)})
    result = compiler.count_heartbeats(request(decl))
    assert result.heartbeats == 36300


def test_mock_heartbeat_count_of_a_failing_compile_is_its_failure():
    decl = "theorem t : True := trivial"
    failure = fail_entry(2, 2, "unsolved goals")
    compiler = MockCompiler(by_source={heartbeat_wrapper(decl): failure})
    assert compiler.count_heartbeats(request(decl)) == failure


def test_mock_heartbeat_count_missing_from_a_success_raises():
    decl = "theorem t : True := trivial"
    compiler = MockCompiler(by_source={heartbeat_wrapper(decl): ok_entry()})
    with pytest.raises(HeartbeatParseError):
        compiler.count_heartbeats(request(decl))


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


# --- the real backend, with a fake ``lake`` on PATH ----------------------------

SOURCE = "theorem t : True := trivial"


class FakeLake:
    """A ``LeanCompiler`` over one toolchain whose ``lake`` is a shell
    script first on PATH. The script saves its arguments, its working
    directory and the file it is given beside itself, then runs ``body``;
    ``$last`` is that file."""

    def __init__(self, tmp_path: Path, monkeypatch, body: str):
        self.dir = tmp_path / "bin"
        self.dir.mkdir()
        lake = self.dir / "lake"
        lake.write_text(
            "#!/bin/sh\n"
            "for last; do :; done\n"
            f"echo \"$*\" > '{self.dir}/args'\n"
            f"pwd > '{self.dir}/cwd'\n"
            f"cp \"$last\" '{self.dir}/seen.lean'\n"
            + body + "\n")
        lake.chmod(0o755)
        monkeypatch.setenv("PATH", f"{self.dir}{os.pathsep}{os.environ['PATH']}")
        self.root = tmp_path / "toolchain"
        self.root.mkdir()
        self.compiler = LeanCompiler(ToolchainRegistry(
            entries=(("v4.24.0", str(self.root)),)))

    def saved(self, name: str) -> str:
        return (self.dir / name).read_text()

    def scratch_left(self) -> list[Path]:
        scratch = self.root / SCRATCH_DIR_NAME
        return list(scratch.iterdir()) if scratch.exists() else []


def lean_request(source=SOURCE):
    return CompileRequest(source=source, toolchain_version="v4.24.0")


def test_lean_success_runs_lake_env_lean_on_a_scratch_file(tmp_path, monkeypatch):
    lake = FakeLake(tmp_path, monkeypatch, "exit 0")
    assert lake.compiler.default_version == "v4.24.0"
    result = lake.compiler.check(lean_request())
    assert result.verdict == Verdict.SUCCESS
    assert result.diagnostics == ()
    assert result.wall_time_total > 0
    assert (result.import_time, result.heartbeats) == (None, None)
    args = lake.saved("args").split()
    assert args[:2] == ["env", "lean"] and len(args) == 3
    scratch = Path(args[2])
    assert (scratch.name, scratch.parent.parent) == (
        "Main.lean", lake.root / SCRATCH_DIR_NAME)
    assert lake.saved("cwd").strip() == str(lake.root)
    assert lake.saved("seen.lean") == SOURCE
    assert lake.scratch_left() == []


@pytest.mark.parametrize("body, diagnostics", [
    pytest.param('echo "$last:3:4: error: unknown identifier \'foo\'"\n'
                 'echo "  in the second line"\n'
                 'echo "plain line"\nexit 1',
                 (Diagnostic(3, 4, "error",
                             "unknown identifier 'foo'\n  in the second line"),),
                 id="continuation_then_plain_line"),
    pytest.param('echo building\necho "lean was killed" >&2\nexit 1',
                 (Diagnostic(1, 0, "error", "lean was killed"),),
                 id="no_diagnostic"),
    pytest.param("exit 1", (Diagnostic(1, 0, "error", "compiler failed"),),
                 id="no_output"),
    pytest.param('echo "Main.lean:2:2: warning: unused variable"\n'
                 'echo "lean exited" >&2\nexit 1',
                 (Diagnostic(2, 2, "warning", "unused variable"),
                  Diagnostic(1, 0, "error", "lean exited")),
                 id="warning_only"),
])
def test_lean_failure_diagnostics(tmp_path, monkeypatch, body, diagnostics):
    lake = FakeLake(tmp_path, monkeypatch, body)
    result = lake.compiler.check(lean_request())
    assert result.verdict == Verdict.FAILURE
    assert result.diagnostics == diagnostics
    assert lake.scratch_left() == []


def test_lean_profile_passes_the_flag_and_parses_the_times(tmp_path, monkeypatch):
    lake = FakeLake(tmp_path, monkeypatch,
                    '[ "$3" = --profile ] || exit 2\n'
                    'echo "cumulative profiling times:"\n'
                    'echo "  import 0.1ms"\n'
                    'echo "  elaboration 0.2ms"')
    assert lake.compiler.check(lean_request()).verdict == Verdict.FAILURE
    result = lake.compiler.profile(lean_request())
    assert result.verdict == Verdict.SUCCESS
    assert result.import_time == pytest.approx(1e-4)
    assert result.elaboration_time == pytest.approx(result.wall_time_total - 1e-4)
    assert lake.saved("args").split()[:3] == ["env", "lean", "--profile"]


def test_lean_count_heartbeats_wraps_the_source(tmp_path, monkeypatch):
    lake = FakeLake(tmp_path, monkeypatch,
                    'echo "$last:1:0: info: Used 1234 heartbeats, which is '
                    'less than the current maximum of 200000"')
    result = lake.compiler.count_heartbeats(lean_request())
    assert (result.verdict, result.heartbeats) == (Verdict.SUCCESS, 1234)
    seen = lake.saved("seen.lean")
    assert seen == heartbeat_wrapper(SOURCE)
    assert seen.startswith("\n".join(HEARTBEAT_DIRECTIVES) + "\n")


def test_lean_heartbeat_count_of_a_failing_compile_is_its_failure(tmp_path,
                                                                  monkeypatch):
    # The count a failed compile prints is not read: only a success's is.
    lake = FakeLake(tmp_path, monkeypatch,
                    'echo "$last:3:2: error: unsolved goals"\n'
                    'echo "$last:1:0: info: Used 99 heartbeats"\nexit 1')
    result = lake.compiler.count_heartbeats(lean_request())
    assert (result.verdict, result.heartbeats) == (Verdict.FAILURE, None)
    assert result.diagnostics == (Diagnostic(3, 2, "error", "unsolved goals"),
                                  Diagnostic(1, 0, "info", "Used 99 heartbeats"))


def test_lean_heartbeat_count_missing_from_a_success_raises(tmp_path,
                                                           monkeypatch):
    lake = FakeLake(tmp_path, monkeypatch, "exit 0")
    with pytest.raises(HeartbeatParseError):
        lake.compiler.count_heartbeats(lean_request())
    assert lake.saved("seen.lean") == heartbeat_wrapper(SOURCE)


def test_a_source_utf8_cannot_encode_fails_without_a_compile(tmp_path,
                                                             monkeypatch):
    # A JSON reply can carry a lone surrogate as "\\ud800".
    lake = FakeLake(tmp_path, monkeypatch, "exit 0")
    result = lake.compiler.check(lean_request("theorem t : True := \ud800"))
    assert result.verdict == Verdict.FAILURE
    (diagnostic,) = result.diagnostics
    assert (diagnostic.line, diagnostic.column, diagnostic.severity) == (
        1, 0, "error")
    assert diagnostic.message.startswith("source is not valid UTF-8: ")
    assert not (lake.dir / "args").exists()  # lake never ran
    assert lake.scratch_left() == []


def test_a_write_that_fails_leaves_no_scratch_directory(tmp_path, monkeypatch):
    lake = FakeLake(tmp_path, monkeypatch, "exit 0")
    path_open = Path.open

    def full_disk(path, *args, **kwargs):
        if path.name == "Main.lean":
            raise OSError(errno.ENOSPC, "No space left on device")
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        lake.compiler.check(lean_request())
    assert not (lake.dir / "args").exists()
    assert lake.scratch_left() == []


def test_lean_cross_version_matrix_survives_the_environments_that_raise(
        tmp_path, monkeypatch):
    lake = FakeLake(tmp_path, monkeypatch, "exit 0")
    compiler = LeanCompiler(ToolchainRegistry(entries=(
        ("v4.24.0", str(lake.root)),
        ("v4.22.0", str(tmp_path / "gone")),  # ToolchainMissing
    )))
    matrix = compiler.cross_version_matrix(
        SOURCE, ["v4.22.0", "v4.99.0", "v4.24.0"])  # v4.99.0: UnknownVersion
    assert matrix == {"v4.22.0": Verdict.ENVIRONMENT_ERROR,
                      "v4.99.0": Verdict.ENVIRONMENT_ERROR,
                      "v4.24.0": Verdict.SUCCESS}
    assert lake.saved("seen.lean") == SOURCE


def test_lean_missing_root_is_a_missing_toolchain(tmp_path):
    registry = ToolchainRegistry(entries=(("v4.24.0", str(tmp_path / "gone")),))
    with pytest.raises(ToolchainMissing, match="does not exist"):
        LeanCompiler(registry).check(lean_request())


def test_lean_without_lake_on_path_is_a_missing_toolchain(tmp_path, monkeypatch):
    lake = FakeLake(tmp_path, monkeypatch, "exit 0")
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with pytest.raises(ToolchainMissing, match="cannot invoke lake"):
        lake.compiler.check(lean_request())
    assert lake.scratch_left() == []


def test_lean_timeout_kills_the_compile(tmp_path, monkeypatch):
    # exec: the sleep is the process that the timeout kills, so no child
    # outlives the check and holds its pipes open.
    lake = FakeLake(tmp_path, monkeypatch, "exec sleep 5")
    monkeypatch.setattr(compiler_module, "DEFAULT_TIMEOUT", 0.3)
    started = time.monotonic()
    result = lake.compiler.check(lean_request())
    assert time.monotonic() - started < 4
    assert result.verdict == Verdict.TIMEOUT
    assert result.wall_time_total >= 0.3
    assert lake.scratch_left() == []


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs: neither gone nor a zombie."""
    try:
        os.kill(pid, 0)
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (ProcessLookupError, FileNotFoundError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_lean_timeout_kills_every_process_of_the_compile(tmp_path, monkeypatch):
    # No exec: like lean under lake env, the sleep is lake's child.
    pid_file = tmp_path / "pid"
    lake = FakeLake(tmp_path, monkeypatch,
                    f"sleep 3 & echo $! > '{pid_file}'; wait")
    monkeypatch.setattr(compiler_module, "DEFAULT_TIMEOUT", 0.3)
    started = time.monotonic()
    result = lake.compiler.check(lean_request())
    assert time.monotonic() - started < 2
    assert result.verdict == Verdict.TIMEOUT
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 1
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not _alive(pid)
    assert lake.scratch_left() == []


# --- both backends, with their compile run stubbed -----------------------------

@pytest.mark.parametrize("make", [
    lambda: LeanCompiler(REGISTRY, max_concurrent=3),
    lambda: MockCompiler(),
], ids=["lean", "mock"])
def test_measurements_run_with_no_check_beside_them(make):
    # A heartbeat count is a check; only profiling runs alone.
    compiler = make()
    lock = threading.Lock()
    running: list[str] = []
    overlaps: list[list[str]] = []

    def fake_run(req, profile):
        kind = "profile" if profile else "check"
        with lock:
            running.append(kind)
            if len(running) > 1 and "profile" in running:
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
            assert compiler.profile(request("x")).wall_time_total == 1.0
            assert compiler.count_heartbeats(request("x")).heartbeats == 7
    finally:
        stop.set()
        for thread in checkers:
            thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in checkers)
    assert overlaps == []


def test_a_heartbeat_count_runs_beside_a_check():
    compiler = LeanCompiler(REGISTRY, max_concurrent=3)
    checking, counted = threading.Event(), threading.Event()

    def fake_run(req, profile):
        if req.source.startswith(HEARTBEAT_DIRECTIVES[0]):
            counted.set()
            return CompileResult(Verdict.SUCCESS, heartbeats=7)
        # The check holds its slot until the count has run.
        checking.set()
        return CompileResult(Verdict.SUCCESS if counted.wait(timeout=5)
                             else Verdict.TIMEOUT)

    compiler._run = fake_run
    verdicts: list[Verdict] = []
    checker = threading.Thread(
        target=lambda: verdicts.append(compiler.check(request("x")).verdict))
    checker.start()
    assert checking.wait(timeout=5)
    assert compiler.count_heartbeats(request("x")).heartbeats == 7
    checker.join(timeout=5)
    assert verdicts == [Verdict.SUCCESS]


def test_checks_and_heartbeat_counts_never_exceed_the_cap():
    compiler = LeanCompiler(REGISTRY, max_concurrent=3)
    lock = threading.Lock()
    in_flight = peak = 0
    full = threading.Event()  # set once the cap is first reached

    def fake_run(req, profile):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
            if in_flight == 3:
                full.set()
        full.wait(timeout=5)
        time.sleep(0.001)
        with lock:
            in_flight -= 1
        return CompileResult(Verdict.SUCCESS, heartbeats=7)

    compiler._run = fake_run

    def work():
        for _ in range(3):
            compiler.check(request("x"))
            compiler.count_heartbeats(request("x"))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert peak == 3
