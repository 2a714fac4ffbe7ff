"""Lean toolchain port: compile checks, profiling, heartbeats, version matrix.

The real backend shells out to ``lake env lean`` inside a registered
toolchain environment, writing each request to an isolated scratch file
that is removed afterwards. The mock backend replays ``CompileResult``s
given in code, keyed by source (optionally per toolchain version) or
consumed in order, which makes the whole agent loop testable offline and
byte-deterministic.

Plain checks may run concurrently up to a configured limit. Profiling and
heartbeat counting run alone: one at a time, and with no check running.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import threading
import time
import uuid
from contextlib import contextmanager
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
DEFAULT_PROFILE_RUNS = 5


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
    want_profile: bool = False
    want_heartbeats: bool = False


@dataclass(frozen=True)
class CompileResult:
    verdict: Verdict
    diagnostics: tuple[Diagnostic, ...] = ()
    wall_time_total: float | None = None
    import_time: float | None = None
    elaboration_time: float | None = None
    heartbeats: int | None = None
    wall_samples: tuple[float, ...] | None = None
    elaboration_samples: tuple[float, ...] | None = None

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
    diagnostics: list[Diagnostic] = []
    current: dict | None = None
    for line in output.splitlines():
        m = _DIAGNOSTIC_RE.match(line)
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


def parse_profile_categories(output: str) -> dict[str, float]:
    """Category -> seconds from the profiler's cumulative section."""
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
    return categories


def split_profile_times(categories: dict[str, float],
                        wall_total: float) -> tuple[float, float]:
    """(import_time, elaboration_time): import categories vs. everything else.

    Elaboration is wall total minus import, clamped at zero to absorb
    sub-tick rounding.
    """
    import_time = sum(v for k, v in categories.items()
                      if k.startswith("import"))
    return import_time, max(wall_total - import_time, 0.0)


def parse_heartbeats(output: str) -> int:
    m = _HEARTBEAT_RE.search(output)
    if not m:
        raise HeartbeatParseError("no heartbeat count in compiler output")
    return int(m.group(1))


class _CompilerCore:
    """Checks, measurements and the version matrix, shared by every
    backend; a backend provides ``_run(req)``, one compile of one request."""

    def __init__(self, max_concurrent: int = 4):
        self._max_concurrent = max_concurrent
        self._check_slots = threading.Semaphore(max_concurrent)
        self._measurement_lock = threading.Lock()

    def _run(self, req: CompileRequest) -> CompileResult:
        raise NotImplementedError

    def check(self, req: CompileRequest) -> CompileResult:
        # A check takes its slot under the measurement lock, so it queues
        # behind a measurement instead of starving it of slots.
        with self._measurement_lock:
            self._check_slots.acquire()
        try:
            return self._run(req)
        finally:
            self._check_slots.release()

    @contextmanager
    def _alone(self):
        """Run a measurement with no other measurement or check beside it:
        hold the measurement lock and every check slot."""
        with self._measurement_lock:
            for _ in range(self._max_concurrent):
                self._check_slots.acquire()
            try:
                yield
            finally:
                for _ in range(self._max_concurrent):
                    self._check_slots.release()

    def profile(self, req: CompileRequest,
                runs: int = DEFAULT_PROFILE_RUNS) -> CompileResult:
        """Serialized repeated profiling; samples back mean/std reporting.
        The first run that does not succeed is returned as is."""
        if runs < 1:
            raise ValueError("runs must be >= 1")
        req = replace(req, want_profile=True)
        with self._alone():
            walls: list[float] = []
            elaborations: list[float] = []
            imports: list[float] = []
            last: CompileResult | None = None
            for _ in range(runs):
                result = self._run(req)
                if result.verdict != Verdict.SUCCESS:
                    return result
                walls.append(result.wall_time_total)
                elaborations.append(result.elaboration_time)
                imports.append(result.import_time)
                last = result
            return replace(
                last,
                wall_time_total=sum(walls) / len(walls),
                import_time=sum(imports) / len(imports),
                elaboration_time=sum(elaborations) / len(elaborations),
                wall_samples=tuple(walls),
                elaboration_samples=tuple(elaborations),
            )

    def count_heartbeats(self, req: CompileRequest) -> CompileResult:
        """Compile ``req.source`` under the heartbeat directives."""
        wrapped = replace(req, source=heartbeat_wrapper(req.source),
                          want_heartbeats=True)
        with self._alone():
            return self._run(wrapped)

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


class LeanCompiler(_CompilerCore):
    """Real toolchain backend driving ``lake env lean`` in scratch files."""

    def __init__(self, registry: ToolchainRegistry, max_concurrent: int = 4):
        super().__init__(max_concurrent)
        self.registry = registry

    @property
    def default_version(self) -> str:
        return self.registry.native_version

    def _resolve_root(self, version: str) -> Path:
        root = self.registry.root_for(version)
        if not root.is_dir():
            raise ToolchainMissing(f"environment root {root} does not exist")
        return root

    def _run(self, req: CompileRequest) -> CompileResult:
        root = self._resolve_root(req.toolchain_version)
        scratch = root / SCRATCH_DIR_NAME / uuid.uuid4().hex
        scratch.mkdir(parents=True, exist_ok=True)
        main = scratch / "Main.lean"
        main.write_text(req.source, encoding="utf-8")
        cmd = ["lake", "env", "lean"]
        if req.want_profile:
            cmd.append("--profile")
        cmd.append(str(main))
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True,
                timeout=DEFAULT_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return CompileResult(verdict=Verdict.TIMEOUT,
                                 wall_time_total=time.monotonic() - started)
        except FileNotFoundError as exc:
            raise ToolchainMissing(f"cannot invoke lake in {root}: {exc}") from exc
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        wall = time.monotonic() - started
        output = proc.stdout + "\n" + proc.stderr
        diagnostics = tuple(parse_diagnostics(output))
        if proc.returncode == 0:
            verdict = Verdict.SUCCESS
        else:
            verdict = Verdict.FAILURE
            if not any(d.severity == "error" for d in diagnostics):
                tail = output.strip().splitlines()[-1] if output.strip() else "compiler failed"
                diagnostics = diagnostics + (Diagnostic(1, 0, "error", tail),)
        import_time = elaboration_time = None
        if req.want_profile and verdict == Verdict.SUCCESS:
            categories = parse_profile_categories(output)
            import_time, elaboration_time = split_profile_times(categories, wall)
        heartbeats = None
        if req.want_heartbeats:
            heartbeats = parse_heartbeats(output)
        return CompileResult(
            verdict=verdict,
            diagnostics=diagnostics,
            wall_time_total=wall,
            import_time=import_time,
            elaboration_time=elaboration_time,
            heartbeats=heartbeats,
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

    def _run(self, req: CompileRequest) -> CompileResult:
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
