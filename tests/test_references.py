"""Every definition of the package is used: each top-level function and
class, and each method other than a dunder, of ``src/lefschetz_lab`` is
referenced somewhere in the package, its tests or its benchmark, as a name,
an attribute or an import.  A definition nothing reaches is dead code.

The package is what the command line runs: each public top-level function
or class is also read, as a name or an attribute, by another top-level
statement of a package module other than ``__init__``.  A construction only
the tests reach belongs in ``tests/_paper.py`` or ``tests/_oracles.py``."""

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


#: Test oracles that ``perfbench`` or ``BENCHMARK.json`` still name, so they
#: stay in the package until the benchmark stops naming them (ROADMAP item 6,
#: group A).
PINNED_BY_THE_BENCHMARK = {
    "biadjacency",
    "permanent",
    "rank_mod_p",
    "determinantal_divisor",
    "enumerate_tilings",
    "msgn",
    "lpsgn",
}


def test_every_public_definition_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    readers = []  # (module, index of the top-level statement, the names it reads)
    for module, tree in trees.items():
        if module != "__init__":
            for k, statement in enumerate(tree.body):
                names = {n.id for n in ast.walk(statement) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(statement) if isinstance(n, ast.Attribute)}
                readers.append((module, k, names))
    unreached = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for k, node in enumerate(tree.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in PINNED_BY_THE_BENCHMARK
        and not any(node.name in names for reader, j, names in readers if (reader, j) != (module, k))
    ]
    assert unreached == [], f"public but reached only from outside the package: {unreached}"
