"""Every definition of the package is used: each top-level function and
class, and each method other than a dunder, of ``src/lefschetz_lab`` is
referenced somewhere in the package, its tests or its benchmark, as a name,
an attribute or an import.  A definition nothing reaches is dead code."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lefschetz_lab"


def _definitions() -> list[str]:
    """``module.name`` and ``module.Class.method`` for every definition."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return found


def _referenced_names() -> set[str]:
    names = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_is_referenced():
    referenced = _referenced_names()
    unused = [name for name in _definitions() if name.rpartition(".")[2] not in referenced]
    assert unused == [], f"defined but never referenced: {unused}"
