"""Every imported name in ``src/``, ``tests/`` and ``benchmarks/`` is read,
and no module of the package imports a sibling's private name.

An ``ast`` scan, since the project runs no linter: a name bound by an
import counts as read when the module loads it (``ast.Name`` in a load
context, which also covers the root of ``a.b.c`` and annotations) or
lists it in ``__all__``. ``from __future__`` imports are directives, not
names, and are skipped. A ``_``-prefixed name is private to its module: a
rule that another module needs belongs under a public name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(path for top in ("src", "tests", "benchmarks")
                 for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0],
                                    node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            read.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_the_scan_sees_an_unused_import_and_honours_all_and_future():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import sys\n"
              "import xml.dom\n"
              "from json import dumps, loads as parse\n"
              "from typing import TYPE_CHECKING\n"
              "__all__ = ['dumps']\n"
              "def f(x: TYPE_CHECKING) -> None:\n"
              "    return os.sep, xml.dom.Node\n")
    assert unused_imports(source) == [
        "osp (line 2)", "sys (line 3)", "parse (line 5)"]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


PACKAGE = sorted((ROOT / "src" / "prooftidy").glob("*.py"))


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names that ``source`` imports from the package, in
    import order; a module of the package imports its siblings relatively."""
    return [f"{alias.name} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "prooftidy")
            for alias in node.names if alias.name.startswith("_")]


def test_the_scan_sees_a_private_name_imported_from_a_sibling():
    source = ("from __future__ import annotations\n"
              "from ._core import _helper, public\n"
              "from .tokenizer import _statement_scan\n"
              "from prooftidy.bank import _read_records\n"
              "from os import _exit\n"
              "from . import tokenizer\n")
    assert private_imports(source) == [
        "_helper (line 2)", "_statement_scan (line 3)", "_read_records (line 4)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_a_sibling(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def names_in(source: str) -> set[str]:
    """Every name that ``source`` imports, loads or reads as an attribute."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_error_class_is_named_in_another_module():
    # With every import read, a class that no other module names has no
    # raiser and no handler left.
    errors = ROOT / "src" / "prooftidy" / "errors.py"
    named = set().union(*(names_in(path.read_text(encoding="utf-8"))
                          for path in PACKAGE if path != errors))
    defined = [node.name for node in ast.parse(errors.read_text(
        encoding="utf-8")).body if isinstance(node, ast.ClassDef)]
    assert [name for name in defined if name not in named] == []
