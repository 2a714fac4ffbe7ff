"""Syntax-aware Lean proof lexing, length metric, and segmentation.

The token metric reproduces a published reference lexer, quirks included:
underscores split identifiers, dots join them, blank lines count one token.
Fidelity to that metric outranks lexical elegance — do not "fix" these.

Segmentation cuts a proof into line windows at content-defined boundaries,
as rsync-style chunking does, so an edit changes only the windows near it
and the rest keep their text.
"""

from __future__ import annotations

import functools
import logging
import re
import zlib
from dataclasses import dataclass

log = logging.getLogger(__name__)

#: Spaced operator sequences re-joined into single tokens, in application order.
LEAN_OPERATORS = [
    ":=", "!=", "&&", "-.", "->", "←", "..", "...", "::", ":>",
    "<;>", ";;", "==", "||", "=>", "<=", ">=", "⁻¹", "?_",
]

#: Characters that extend a token alongside alphanumerics. Underscore is
#: deliberately absent: the metric splits identifiers at underscores.
TOKEN_JOIN_CHARS = ".'"

#: Returned by :func:`proof_length` when the input cannot be measured.
LENGTH_FAILURE_SENTINEL = 10 ** 9

_DECL_KEYWORDS = ("theorem", "lemma", "example")
_DECL_KEYWORD_RE = re.compile(r"\b(" + "|".join(_DECL_KEYWORDS) + r")\b")

_OPEN_BRACKETS = "([{⟨"
_CLOSE_BRACKETS = ")]}⟩"


@dataclass(frozen=True)
class ProofSpan:
    """A contiguous run of proof lines, 1-based and inclusive."""

    line_start: int
    line_end: int
    text: str


_COMMENT_OR_STRING_RE = re.compile(r'"|/-|--')
_BLOCK_MARK_RE = re.compile(r"/-|-/")
# A string literal from its opening quote through the closing one; an
# escape takes the next character, and an unclosed literal runs on to the
# end of input.
_STRING_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)


def _block_comment_end(text: str, i: int) -> int | None:
    """Offset just past the nested ``/- -/`` comment opening at ``text[i]``,
    or None when it never closes."""
    depth = 0
    for mark in _BLOCK_MARK_RE.finditer(text, i):
        depth += 1 if mark.group() == "/-" else -1
        if depth == 0:
            return mark.end()
    return None


def remove_comments(source: str) -> str:
    """Strip Lean 4 comments, leaving everything else byte-identical.

    ``--`` runs to end of line (the newline survives); ``/- ... -/`` nests
    and is removed together with any newlines it spans. Double-quoted string
    literals are opaque: comment markers inside them are ignored. An
    unterminated block comment is stripped to end of input with a warning.
    """
    out: list[str] = []
    i = 0
    n = len(source)
    while (m := _COMMENT_OR_STRING_RE.search(source, i)) is not None:
        start = m.start()
        out.append(source[i:start])
        mark = m.group()
        if mark == '"':
            i = _STRING_RE.match(source, start).end()
            out.append(source[start:i])
        elif mark == "--":
            newline = source.find("\n", start)
            i = n if newline < 0 else newline
        else:
            end = _block_comment_end(source, start)
            if end is None:
                log.warning("unterminated block comment; stripped to end of input")
            i = n if end is None else end
    out.append(source[i:])
    return "".join(out)


def split_declaration(statement_and_proof: str) -> int | None:
    """Return the offset just past the ``:=`` that ends the declaration.

    The declaration ends at the first ``:=`` occurring at zero nesting depth
    of ``()[]{}⟨⟩`` after the theorem/lemma/example keyword; the proof is
    ``text[offset:]``. None when there is no header keyword or no
    top-level ``:=``.
    """
    m = _DECL_KEYWORD_RE.search(statement_and_proof)
    if m is None:
        return None
    depth = 0
    i = m.end()
    n = len(statement_and_proof)
    while i < n:
        ch = statement_and_proof[i]
        if ch in _OPEN_BRACKETS:
            depth += 1
        elif ch in _CLOSE_BRACKETS:
            depth -= 1
        elif depth == 0 and statement_and_proof.startswith(":=", i):
            return i + 2
        i += 1
    return None


_BINDER_KEYWORDS = ("let", "have", "letI", "haveI")
_WORD_RE = re.compile(r"[\w.']+")
_CHAR_LITERAL_RE = re.compile(
    r"'(?:\\(?:x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|.)|[^\\'\n])'")


def statement_of(source: str) -> tuple[str, str] | None:
    """``source`` through the ``:=`` that ends its statement, and the
    statement without comments, each whitespace run one space and none at
    either end; None when there is no header keyword or no ``:=`` ending
    the statement.

    The statement guard's scanner. :func:`split_declaration` and
    :func:`remove_comments` must keep the published metric's quirks; this
    scanner must not accept a different theorem. String and char literals
    and ``«»``-quoted names are opaque, whole words are matched (``h'`` is
    a name, ``'"'`` a char), comments are dropped, and each depth-0
    ``let``/``have`` binder after the header consumes its own ``:=``.

    Every position of the prefix is decided from the prefix alone: each
    comment, literal and ``«»`` name skipped there closes inside it, and
    its last two characters are ``:=``. So any text that starts with the
    prefix has the same statement.
    """
    kept: list[str] = []
    kept_from = 0
    header = False
    depth = 0
    binders = 0
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if source.startswith("--", i) or source.startswith("/-", i):
            kept.append(source[kept_from:i])
            if ch == "/":
                end = _block_comment_end(source, i)
                i = n if end is None else end
            else:
                newline = source.find("\n", i)
                i = n if newline < 0 else newline
            kept_from = i
            continue
        if ch == '"':
            i = _STRING_RE.match(source, i).end()
            continue
        if ch == "'":
            literal = _CHAR_LITERAL_RE.match(source, i)
            if literal:
                i = literal.end()
                continue
        elif ch == "«":
            close = source.find("»", i)
            i = n if close < 0 else close + 1
            continue
        elif ch.isalnum() or ch == "_":
            word = _WORD_RE.match(source, i).group()
            if not header:
                header = word in _DECL_KEYWORDS
            elif depth == 0 and word in _BINDER_KEYWORDS:
                binders += 1
            i += len(word)
            continue
        elif ch in _OPEN_BRACKETS:
            depth += 1
        elif ch in _CLOSE_BRACKETS:
            depth -= 1
        elif header and depth == 0 and source.startswith(":=", i):
            if binders == 0:
                kept.append(source[kept_from:i + 2])
                return source[:i + 2], " ".join("".join(kept).split())
            binders -= 1
            i += 2
            continue
        i += 1
    return None


_SPACED_OPERATORS = tuple((" ".join(op), op) for op in LEAN_OPERATORS)


def _line_tokens(line: str) -> tuple[str, ...]:
    """One line's tokens: the character classes, then the operator re-join."""
    tokens: list[str] = []
    token = ""
    for ch in line:
        if ch == " ":
            if token:
                tokens.append(token)
                token = ""
        elif ch.isalnum() or ch in TOKEN_JOIN_CHARS:
            token += ch
        else:
            if token:
                tokens.append(token)
                token = ""
            tokens.append(ch)
    if token:
        tokens.append(token)
    joined = " ".join(tokens)
    for spaced, op in _SPACED_OPERATORS:
        if spaced in joined:
            joined = joined.replace(spaced, op)
    # A blank line splits to one empty token, matching the reference count.
    return tuple(joined.split(" "))


@functools.lru_cache(maxsize=1024)
def _line_length(line: str) -> int:
    """One line's token count, memoised on the line text (1024 entries):
    a session measures many candidates that share most of their lines
    with the current proof."""
    return len(_line_tokens(line))


def _metric_lines(proof_text: str) -> list[str]:
    """The lines the metric counts: ``str.splitlines`` less one trailing
    token-free (all-space) line, which the reference's join and re-split
    swallows."""
    lines = proof_text.splitlines()
    if lines and not lines[-1].strip(" "):
        lines.pop()
    return lines


def lex(proof_text: str) -> list[tuple[str, ...]]:
    """Tokenize proof text with the reference character classes: one
    tuple of tokens per line.

    A token grows over alphanumerics and ``.'``; every other non-space
    character is emitted alone; spaced operator sequences from
    ``LEAN_OPERATORS`` are then re-joined in order. Comments are assumed
    already removed. Total function: never raises.

    Two reference-metric quirks are preserved: an interior line with no
    tokens is a single empty token (it counts one), and a trailing
    token-free line is dropped (it counts zero).

    Each call lexes every line afresh and returns new tuples; only the
    counts that :func:`proof_length` sums are memoised.
    """
    return list(map(_line_tokens, _metric_lines(proof_text)))


def proof_length(statement_and_proof: str) -> int:
    """Token count of the proof part of a full declaration.

    Comments are removed, the declaration is split off at its top-level
    ``:=``, and the remainder's lines are counted as :func:`lex` would
    tokenize them. Each line's count comes from a process-wide memo of
    1024 line texts, which holds counts, not tokens. A text that does not
    split, or any other failure, yields the sentinel
    ``LENGTH_FAILURE_SENTINEL`` rather than an exception.
    ``split_declaration`` counts brackets inside string and char literals
    too, as ``tests/reference_metric.py`` does, so ``theorem t : "(" =
    "(" := by\\n  rfl`` measures the sentinel and ``run_session`` refuses it.
    """
    try:
        cleaned = remove_comments(statement_and_proof)
        offset = split_declaration(cleaned)
        if offset is None:
            return LENGTH_FAILURE_SENTINEL
        return sum(map(_line_length, _metric_lines(cleaned[offset:])))
    except Exception:
        return LENGTH_FAILURE_SENTINEL


def _lines(text: str) -> list[str]:
    """The lines of ``text`` as Lean numbers them: broken at ``"\n"`` only,
    a final ``"\n"`` ending the last line rather than opening a new one."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def line_count(text: str) -> int:
    """A proof's number of lines, as Lean counts them; an empty proof
    still occupies one. Equal to ``max(1, len(_lines(text)))``, counted
    without building the lines."""
    return max(1, text.count("\n") + (not text.endswith("\n")))


def _span_for(lines: list[str], start: int, end: int) -> ProofSpan:
    return ProofSpan(start, end, "\n".join(lines[start - 1:end]))


def segment(proof: str, sizes: list[int]) -> list[ProofSpan]:
    """Cut a proof into line windows at content-defined boundaries, at
    several granularities.

    Lines are those of :func:`line_count`, so each span's text is a slice
    of ``proof``. For each size ``s``, consecutive non-overlapping windows
    cover all lines. A window ends after a line whose hash (CRC-32 of the
    stripped line) is 0 mod ``s`` once it holds at least ``max(1, s // 2)``
    lines; it always ends at ``2 * s`` lines, and the last window may be
    short. Whether a window ends after a line depends only on the lines
    since the window began, so an edit leaves every window above it as it
    was, and once the windows below it end after the same line as before
    the edit, the rest keep their text (their ranges shift with the edit).
    Windows that coincide across granularities are deduplicated by
    (line_start, line_end); a whole-proof span is always appended last.
    """
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be non-empty and all >= 1")
    lines = _lines(proof)
    if not lines:
        return [ProofSpan(1, 1, "")]
    n = len(lines)
    # Stripped: indentation and trailing spaces do not move a cut. A lone
    # surrogate is encoded, not refused.
    hashes = [zlib.crc32(line.strip().encode("utf-8", "surrogatepass"))
              for line in lines]
    spans: list[ProofSpan] = []
    seen: set[tuple[int, int]] = set()
    for size in sizes:
        shortest = max(1, size // 2)
        start = 1
        for end, h in enumerate(hashes, 1):
            length = end - start + 1
            at_cut = length >= shortest and h % size == 0
            if at_cut or length == 2 * size or end == n:
                if (start, end) not in seen:
                    seen.add((start, end))
                    spans.append(_span_for(lines, start, end))
                start = end + 1
    spans.append(_span_for(lines, 1, n))
    return spans

