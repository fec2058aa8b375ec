"""Static checks on the package sources, with the standard library only."""
import ast
from pathlib import Path

import dualxp

SOURCES = sorted(Path(dualxp.__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, as `line: name`.  It skips
    `from __future__` imports and lines marked `# noqa: F401`, and counts a
    name as read when it is loaded, listed in `__all__`, or named in a
    string annotation."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = alias.lineno
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)  # a forward reference such as "Instance"
    return sorted(f"{line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    assert SOURCES
    unused = {path.name: found for path in SOURCES
              if (found := _unused_imports(path.read_text()))}
    assert unused == {}


def test_unused_import_check_finds_and_excuses():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import (Optional,\n"
              "                    Sequence)\n"
              "from json import dumps  # noqa: F401  (re-exported)\n"
              "from re import compile as rx\n"
              "__all__ = ['Sequence']\n"
              "def f(x: 'Optional') -> None:\n"
              "    return sys.argv\n")
    assert _unused_imports(source) == ["2: os", "6: rx"]
