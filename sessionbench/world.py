"""What the benchmark's stand-in world knows: toolchains, lemma names, and
the kinds of removable proof lines.

The generator plants lines from this catalogue, the responder recognises
them the way a model would recognise redundant steps, and the oracle
compiler decides which names exist on which toolchain. None of it is read
by the program under test, which only sees the generated files.
"""

from __future__ import annotations

import re

VERSIONS = ("v4.9.0", "v4.12.0", "v4.15.0", "v4.19.0")
NATIVE = VERSIONS[0]

#: Names that exist on every registered toolchain.
STABLE_NAMES = tuple(
    f"{ns}.{stem}"
    for ns in ("Nat", "Int", "Real", "Finset")
    for stem in ("add_comm", "mul_comm", "add_assoc", "le_of_lt", "le_trans",
                 "sub_nonneg", "pow_two", "mul_pos", "add_pos_of_pos_of_nonneg",
                 "two_mul", "mul_le_mul", "lt_of_le_of_lt")
)

#: old name -> (new name, index into VERSIONS of the first toolchain that
#: has only the new name). The old name exists before that index, the new
#: one from it on.
RENAMES = {
    "Nat.pos_of_ne_zero": ("Nat.pos_iff_ne_zero", 1),
    "Finset.card_le_of_subset": ("Finset.card_le_card", 2),
    "Int.coe_nat_dvd": ("Int.natCast_dvd_natCast", 2),
    "Nat.cast_sum": ("Nat.cast_finsetSum", 3),
    "Finset.sum_const_nat": ("Finset.sum_const_natCast", 2),
    "Nat.le_div_iff_mul_le": ("Nat.le_div_iff_mul_le'", 1),
    "Real.rpow_natCast": ("Real.rpow_natCast'", 3),
    "Nat.lt_pow_self": ("Nat.lt_pow_self_of_one_lt", 2),
    "Int.emod_emod_of_dvd": ("Int.emod_emod_of_dvd'", 3),
    "Nat.sub_lt_sub_left": ("Nat.sub_lt_sub_left_iff", 1),
}
NEW_TO_OLD = {new: old for old, (new, _) in RENAMES.items()}


def names_on(version: str) -> frozenset[str]:
    """Every lemma name that exists on ``version``."""
    at = VERSIONS.index(version)
    names = set(STABLE_NAMES)
    for old, (new, since) in RENAMES.items():
        names.add(new if at >= since else old)
    return frozenset(names)


#: Dotted capitalised identifiers: what the oracle resolves against a toolchain.
NAME_RE = re.compile(r"(?<![\w.'])[A-Z][A-Za-z0-9]*(?:\.[A-Za-z0-9_']+)+")

# --- removable line kinds ----------------------------------------------------

#: Strategy-title phrase for each removable kind. A bank strategy's title
#: starts with one of these, which is how the responder tells what a
#: retrieved strategy is about.
KIND_PHRASES = {
    "unused_have": "Drop unused auxiliary facts",
    "show": "Remove restated goals",
    "clear": "Remove needless context clearing",
    "noop": "Delete no-op tactics",
    "duplicate": "Collapse repeated tactic calls",
}
#: Kinds the responder removes without a retrieved strategy naming them.
GENERIC_KINDS = frozenset({"noop", "duplicate"})

NOOP_LINES = ("skip", "try rfl", "try trivial", "try norm_num", "all_goals skip")

_HAVE_RE = re.compile(r"^have (\w+) :")
_WORD_RE = re.compile(r"\w+")


def removable_kinds(lines: list[str]) -> dict[int, str]:
    """0-based index -> kind, for each line of a proof body that could go.

    ``lines`` are the proof's lines after the statement line. Comments and
    blank lines are never removable; a ``have`` is removable only when no
    later line mentions its name.
    """
    out: dict[int, str] = {}
    code: list[tuple[int, str]] = []
    in_block = False
    for i, line in enumerate(lines):
        s = line.strip()
        if in_block or s.startswith("/-"):
            in_block = not s.endswith("-/")
            continue
        if not s or s.startswith("--"):
            continue
        code.append((i, s))
    later: set[str] = set()   # words on lines after the current one
    unused: set[int] = set()
    for i, s in reversed(code):
        m = _HAVE_RE.match(s)
        if m and m.group(1) not in later:
            unused.add(i)
        later.update(_WORD_RE.findall(s))
    prev = None
    for i, s in code:
        if s in NOOP_LINES:
            out[i] = "noop"
        elif s == prev:
            out[i] = "duplicate"
        elif s.startswith("show "):
            out[i] = "show"
        elif s.startswith("clear "):
            out[i] = "clear"
        elif i in unused:
            out[i] = "unused_have"
        prev = s
    return out
