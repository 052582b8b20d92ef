"""The package's modules import each other only at module level, and the
graph of those imports has no cycle: each concept has one owner, and a
module never reaches back into one that depends on it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lefschetz_lab"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The modules of the package that one import statement loads."""
    if isinstance(node, ast.Import):
        dotted = [alias.name.split(".") for alias in node.names]
        return {parts[1] for parts in dotted if parts[0] == "lefschetz_lab" and len(parts) > 1}
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "lefschetz_lab":
            return set()
        parts = parts[1:]
    elif node.level == 1:
        parts = node.module.split(".") if node.module else []
    else:
        return set()
    if parts:
        return {parts[0]}
    return {alias.name for alias in node.names if alias.name in MODULES}  # from . import x


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    nested = [
        (func.name, node.lineno)
        for func in ast.walk(MODULES[name])
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == [], f"{name}.py imports inside functions at {nested}"


def test_the_import_graph_has_no_cycle():
    edges = {
        name: sorted(
            set().union(*(_imported_modules(n) for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))))
            - {name}
        )
        for name, tree in MODULES.items()
    }
    # tilings reads regions, never the other way round (and the parser sees relative imports)
    assert "regions" in edges["tilings"] and "tilings" not in edges["regions"]
    state: dict[str, str] = {}

    def visit(name: str, path: list[str]) -> None:
        state[name] = "open"
        for target in edges[name]:
            assert state.get(target) != "open", "import cycle: " + " -> ".join([*path, name, target])
            if target not in state:
                visit(target, [*path, name])
        state[name] = "done"

    for name in edges:
        if name not in state:
            visit(name, [])
