"""Lean toolchain port: compile checks, profiling, heartbeats, version matrix.

The real backend shells out to ``lake env lean`` inside a registered
toolchain environment, on ``Main.lean`` in a temporary directory under
its ``.refactor-scratch``, which goes when the compile ends or the write
fails; a source that UTF-8 cannot encode fails on line 1 with no compile.
The mock backend replays ``CompileResult``s given in code, keyed by
source (optionally per toolchain version) or consumed in order, which
makes the whole agent loop testable offline and byte-deterministic.

Checks run concurrently up to a configured limit, and a heartbeat count
is one of them: Lean's count of elaboration work is deterministic, so it
needs no quiet machine. Profiling times the wall clock, so it runs alone:
one profile at a time, with no check beside it. ``profile`` is the one
path that profiles: the core hands a backend's ``_run`` the profile flag,
false for every check. Both backends keep the same rule for a
measurement: profile times and a heartbeat count are read only from a
compile that succeeded.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import tempfile
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from .bank import ToolchainRegistry
from .errors import (
    HeartbeatParseError,
    ProfileParseError,
    ProoftidyError,
    ScriptExhausted,
    ToolchainMissing,
)

#: Prepended (in this order) to a declaration to measure its heartbeat count.
HEARTBEAT_DIRECTIVES = (
    "set_option Elab.async false in",
    "#count_heartbeats in",
)

SCRATCH_DIR_NAME = ".refactor-scratch"

DEFAULT_TIMEOUT = 300.0
PROFILE_RUNS = 5


class Verdict(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    TIMEOUT = "timeout"
    # Only produced inside cross_version_matrix entries; plain checks raise.
    ENVIRONMENT_ERROR = "environment_error"


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    severity: str
    message: str


@dataclass(frozen=True)
class CompileRequest:
    source: str
    toolchain_version: str


@dataclass(frozen=True)
class CompileResult:
    """One compile's outcome. Every request fills ``verdict`` and
    ``diagnostics``, and the real backend ``wall_time_total``. Only a
    successful ``profile`` fills ``import_time`` and ``elaboration_time``
    (means over its runs, as is ``wall_time_total``). ``heartbeats`` is
    filled only by a successful compile that reports a count, as every
    ``count_heartbeats`` request's must."""

    verdict: Verdict
    diagnostics: tuple[Diagnostic, ...] = ()
    wall_time_total: float | None = None
    import_time: float | None = None
    elaboration_time: float | None = None
    heartbeats: int | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == Verdict.SUCCESS

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def heartbeat_wrapper(decl_source: str) -> str:
    """The measurement file for one declaration, directives byte-exact."""
    return "\n".join(HEARTBEAT_DIRECTIVES) + "\n" + decl_source


_DIAGNOSTIC_RE = re.compile(
    r"^(?P<file>[^\s:][^:\n]*):(?P<line>\d+):(?P<col>\d+): "
    r"(?P<severity>error|warning|info): (?P<message>.*)$"
)
_PROFILE_HEADER = "cumulative profiling times:"
_PROFILE_LINE_RE = re.compile(r"^\s+(?P<name>\S[^\t]*?)\s+(?P<value>\d+(?:\.\d+)?)(?P<unit>ms|s|min)$")
_HEARTBEAT_RE = re.compile(r"[Uu]sed\s+(\d+)\s+heartbeats")

_UNIT_SECONDS = {"ms": 1e-3, "s": 1.0, "min": 60.0}


def parse_diagnostics(output: str) -> list[Diagnostic]:
    """Pull ``file:line:col: severity: message`` records out of compiler output.

    Continuation lines (not matching the pattern) extend the previous
    message, matching how Lean wraps multi-line errors.
    """
    records: list[dict] = []
    current: dict | None = None  # the record a continuation line extends
    for line in output.splitlines():
        m = _DIAGNOSTIC_RE.match(line)
        if m:
            current = {
                "line": int(m.group("line")),
                "column": int(m.group("col")),
                "severity": m.group("severity"),
                "message": m.group("message"),
            }
            records.append(current)
        elif current is not None and line.startswith((" ", "\t")):
            current["message"] += "\n" + line
        else:
            current = None
    return [Diagnostic(**record) for record in records]


def parse_profile_times(output: str,
                        wall_total: float) -> tuple[float, float]:
    """(import_time, elaboration_time) from the profiler's cumulative section.

    Import time sums the categories named ``import...``; elaboration is
    everything else, the wall total minus import, clamped at zero to absorb
    sub-tick rounding.
    """
    lines = output.splitlines()
    try:
        start = next(i for i, line in enumerate(lines)
                     if line.strip() == _PROFILE_HEADER)
    except StopIteration:
        raise ProfileParseError("no cumulative profiling section found",
                                raw_output=output)
    categories: dict[str, float] = {}
    for line in lines[start + 1:]:
        m = _PROFILE_LINE_RE.match(line)
        if not m:
            break
        seconds = float(m.group("value")) * _UNIT_SECONDS[m.group("unit")]
        categories[m.group("name").strip()] = seconds
    if not categories:
        raise ProfileParseError("cumulative profiling section is empty",
                                raw_output=output)
    import_time = sum(v for k, v in categories.items()
                      if k.startswith("import"))
    return import_time, max(wall_total - import_time, 0.0)


def parse_heartbeats(output: str) -> int | None:
    m = _HEARTBEAT_RE.search(output)
    return int(m.group(1)) if m else None


class _CompilerCore:
    """Checks, measurements and the version matrix, shared by every
    backend; a backend provides ``_run(req, profile)``, one compile of one
    request, profiled when ``profile`` is true."""

    def __init__(self, max_concurrent: int = 4):
        self._max_concurrent = max_concurrent
        self._check_slots = threading.Semaphore(max_concurrent)
        self._measurement_lock = threading.Lock()

    def _run(self, req: CompileRequest, profile: bool) -> CompileResult:
        raise NotImplementedError

    def check(self, req: CompileRequest) -> CompileResult:
        # A check takes its slot under the measurement lock, so it queues
        # behind a measurement instead of starving it of slots.
        with self._measurement_lock:
            self._check_slots.acquire()
        try:
            return self._run(req, profile=False)
        finally:
            self._check_slots.release()

    def profile(self, req: CompileRequest) -> CompileResult:
        """``PROFILE_RUNS`` profiled compiles, with the mean of each time.

        They run alone: under the measurement lock and holding every check
        slot, so no other profile or check runs beside them. The first run
        that does not succeed is returned as is.
        """
        results: list[CompileResult] = []
        with self._measurement_lock:
            for _ in range(self._max_concurrent):
                self._check_slots.acquire()
            try:
                for _ in range(PROFILE_RUNS):
                    result = self._run(req, profile=True)
                    if not result.ok:
                        return result
                    results.append(result)
            finally:
                for _ in range(self._max_concurrent):
                    self._check_slots.release()
        return replace(
            results[-1],
            wall_time_total=sum(r.wall_time_total for r in results) / PROFILE_RUNS,
            import_time=sum(r.import_time for r in results) / PROFILE_RUNS,
            elaboration_time=sum(r.elaboration_time for r in results) / PROFILE_RUNS,
        )

    def count_heartbeats(self, req: CompileRequest) -> CompileResult:
        """A check of ``req.source`` under the heartbeat directives. A
        compile that fails comes back with no count; one that succeeds and
        reports none raises ``HeartbeatParseError``."""
        result = self.check(replace(req, source=heartbeat_wrapper(req.source)))
        if result.ok and result.heartbeats is None:
            raise HeartbeatParseError("no heartbeat count in compiler output")
        return result

    def cross_version_matrix(self, source: str,
                             versions: Sequence[str]) -> dict[str, Verdict]:
        """One check per version; a broken environment never aborts the rest."""
        matrix: dict[str, Verdict] = {}
        for version in versions:
            req = CompileRequest(source=source, toolchain_version=version)
            try:
                matrix[version] = self.check(req).verdict
            except (ProoftidyError, OSError):
                matrix[version] = Verdict.ENVIRONMENT_ERROR
        return matrix


def _run_as_group(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run ``cmd`` in a process group of its own, for at most
    ``DEFAULT_TIMEOUT`` seconds.

    ``lake env lean`` runs ``lean`` as a child of ``lake``. So on a timeout,
    or any other exception, the whole group is killed and reaped before the
    exception propagates: no process of the compile outlives the check.
    """
    with subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=DEFAULT_TIMEOUT)
        except BaseException:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


class LeanCompiler(_CompilerCore):
    """Real toolchain backend driving ``lake env lean`` in scratch files."""

    def __init__(self, registry: ToolchainRegistry, max_concurrent: int = 4):
        super().__init__(max_concurrent)
        self.registry = registry

    @property
    def default_version(self) -> str:
        return self.registry.native_version

    def _run(self, req: CompileRequest, profile: bool) -> CompileResult:
        root = self.registry.root_for(req.toolchain_version)
        if not root.is_dir():
            raise ToolchainMissing(f"environment root {root} does not exist")
        try:
            source = req.source.encode("utf-8")
        except UnicodeEncodeError as exc:
            return CompileResult(verdict=Verdict.FAILURE, diagnostics=(
                Diagnostic(1, 0, "error", f"source is not valid UTF-8: {exc}"),))
        (root / SCRATCH_DIR_NAME).mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=root / SCRATCH_DIR_NAME,
                                         ignore_cleanup_errors=True) as scratch:
            main = Path(scratch) / "Main.lean"
            main.write_bytes(source)
            cmd = ["lake", "env", "lean"]
            if profile:
                cmd.append("--profile")
            cmd.append(str(main))
            started = time.monotonic()
            try:
                proc = _run_as_group(cmd, root)
            except subprocess.TimeoutExpired:
                return CompileResult(verdict=Verdict.TIMEOUT,
                                     wall_time_total=time.monotonic() - started)
            except FileNotFoundError as exc:
                raise ToolchainMissing(f"cannot invoke lake in {root}: {exc}") from exc
        wall = time.monotonic() - started
        output = proc.stdout + "\n" + proc.stderr
        diagnostics = tuple(parse_diagnostics(output))
        if proc.returncode != 0:
            if not CompileResult(Verdict.FAILURE, diagnostics).errors():
                tail = output.strip().splitlines()[-1] if output.strip() else "compiler failed"
                diagnostics = diagnostics + (Diagnostic(1, 0, "error", tail),)
            return CompileResult(Verdict.FAILURE, diagnostics, wall_time_total=wall)
        import_time = elaboration_time = None
        if profile:
            import_time, elaboration_time = parse_profile_times(output, wall)
        return CompileResult(
            verdict=Verdict.SUCCESS,
            diagnostics=diagnostics,
            wall_time_total=wall,
            import_time=import_time,
            elaboration_time=elaboration_time,
            heartbeats=parse_heartbeats(output),
        )


# --- scripted mock ------------------------------------------------------------

class MockCompiler(_CompilerCore):
    """Deterministic scripted stand-in for the Lean toolchain.

    A request is answered by ``by_version[version][source]``, else by
    ``by_source[source]`` (both pure functions of the source), else by the
    next unused entry of ``sequence``. A request beyond all three raises
    ScriptExhausted: a test must script its whole scenario. Heartbeat
    requests are keyed on the wrapped source, the bytes the real backend
    compiles.
    """

    def __init__(self, by_source: dict[str, CompileResult] | None = None,
                 by_version: dict[str, dict[str, CompileResult]] | None = None,
                 sequence: Sequence[CompileResult] = (),
                 default_version: str = "v4.24.0"):
        super().__init__()
        self.by_source = dict(by_source or {})
        self.by_version = dict(by_version or {})
        self._sequence = iter(sequence)
        self.default_version = default_version
        self.calls: list[tuple[str, str]] = []  # (version, source)

    def _run(self, req: CompileRequest, profile: bool) -> CompileResult:
        version, source = req.toolchain_version, req.source
        self.calls.append((version, source))
        versioned = self.by_version.get(version, {})
        if source in versioned:
            return versioned[source]
        if source in self.by_source:
            return self.by_source[source]
        result = next(self._sequence, None)
        if result is None:
            raise ScriptExhausted(
                f"no scripted result for source {source[:60]!r} under {version}")
        return result
