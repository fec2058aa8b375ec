"""Static checks on the package sources, with the standard library only."""
import ast
import dataclasses
import importlib
import re
from pathlib import Path

import dualxp

SOURCES = sorted(Path(dualxp.__file__).resolve().parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def _stale_references(text: str, classes: dict[str, type]) -> list[str]:
    """Each backticked `Class.attr` in `text` whose `Class` is one of
    `classes` but has neither an attribute nor a dataclass field `attr`.
    Names that are not in `classes`, such as `BENCHMARK.json`, are skipped."""
    stale = []
    for name, attr in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)[^`\n]*`", text):
        cls = classes.get(name)
        if cls is None or hasattr(cls, attr):
            continue
        if not (dataclasses.is_dataclass(cls)
                and attr in {f.name for f in dataclasses.fields(cls)}):
            stale.append(f"{name}.{attr}")
    return stale


def _dualxp_classes() -> dict[str, type]:
    """Every class defined in a dualxp module, by name."""
    classes = {}
    for path in SOURCES:
        module = importlib.import_module(
            "dualxp" if path.stem == "__init__" else f"dualxp.{path.stem}")
        classes.update((name, obj) for name, obj in vars(module).items()
                       if isinstance(obj, type)
                       and obj.__module__.startswith("dualxp"))
    return classes


def test_no_stale_attribute_references():
    classes = _dualxp_classes()
    stale = {path.name: found for path in [README, *SOURCES]
             if (found := _stale_references(path.read_text(), classes))}
    assert stale == {}


def test_stale_reference_check_finds_and_skips():
    @dataclasses.dataclass(frozen=True)
    class Tree:
        nodes: tuple

        @property
        def size(self) -> int:
            return len(self.nodes)

    text = ("`Tree.nodes` and `Tree.size()` exist, `Tree.arrays` and\n"
            "`Tree.gone(x)` do not; `BENCHMARK.json` and Tree.bare are skipped")
    assert _stale_references(text, {"Tree": Tree}) == ["Tree.arrays", "Tree.gone"]
    assert _stale_references("`TreeStructure.arrays`", _dualxp_classes()) == [
        "TreeStructure.arrays"]
