"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class ProoftidyError(Exception):
    """Base class for all toolkit errors."""


# --- strategy bank ----------------------------------------------------------

class SchemaError(ProoftidyError):
    """A bank record violates the on-disk schema.

    Carries the offending field name and, when read from a file, the
    1-based line number of the record.
    """

    def __init__(self, message: str, *, field: str, line: int | None = None):
        self.field = field
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where} [field={field}]")


class UnknownVersion(ProoftidyError):
    """A toolchain version identifier is not in the registry."""


# --- retrieval --------------------------------------------------------------

class DegenerateVector(ProoftidyError):
    """A vector that has no direction: an index row, a query or a
    ``cosine`` operand that is all zero or has a NaN or infinite
    component, or an all-zero row given to ``contrastive_loss``. A
    provider's reply with such a vector is a ``ProviderContractViolation``
    instead."""


class IndexBankMismatch(ProoftidyError):
    """An index holds a strategy id that the bank it is queried with lacks."""


class RetryableProviderError(ProoftidyError):
    """Embedding provider transport failure after exhausting retries."""

    def __init__(self, message: str, *, attempts: int):
        self.attempts = attempts
        super().__init__(f"{message} (after {attempts} attempts)")


class ProviderContractViolation(ProoftidyError):
    """Embedding provider returned vectors violating its declared contract."""


#: HTTP statuses that no retry can fix: a malformed request, missing or
#: refused credentials, or a wrong endpoint or model.
REJECTED_STATUSES = frozenset({400, 401, 403, 404})


class ProviderRejected(ProoftidyError):
    """An HTTP provider refused a request with a status in
    ``REJECTED_STATUSES``; raised after one request, never retried."""

    def __init__(self, message: str, *, status: int):
        self.status = status
        super().__init__(f"{message} (HTTP {status})")


# --- compiler interface -----------------------------------------------------

class ToolchainMissing(ProoftidyError):
    """The registered toolchain environment cannot be resolved."""


class ProfileParseError(ProoftidyError):
    """Profiler output could not be parsed; carries the raw output."""

    def __init__(self, message: str, *, raw_output: str):
        self.raw_output = raw_output
        super().__init__(message)


class HeartbeatParseError(ProoftidyError):
    """No heartbeat count found in the compiler's info output."""


class ScriptExhausted(ProoftidyError):
    """A scripted mock received a request it has no scripted answer for."""


# --- agent loop -------------------------------------------------------------

class PreconditionFailed(ProoftidyError):
    """The session cannot start: the input has no statement, its length
    cannot be measured, or it does not compile."""


class StepFailed(ProoftidyError):
    """A refactoring step produced no usable candidate."""


class StatementMutation(ProoftidyError):
    """A candidate altered the theorem statement and was rejected."""


class LLMTransportError(ProoftidyError):
    """LLM endpoint could not be reached or returned a transport error."""

