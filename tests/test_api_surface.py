"""The package keeps no code that only its tests reach.

Every function, class and method defined under ``src/algossip`` must be
referenced somewhere in the package or the benchmark (``bench/``), outside
its own definition: by name, as an attribute, in an import, or as a string
that is exactly its name (``getattr`` lookups and the benchmark's wrapped
callback names). Dunder methods are called by Python itself and are not
checked. A definition that only tests reach fails this test; delete it, or
move it into the tests that need it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "algossip"
SCANNED = (PACKAGE, ROOT / "bench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(folder: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(folder.rglob("*.py"))}


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()):
        return node.value
    return None


def unreferenced_definitions() -> list[str]:
    """``module:line name`` of every checked definition with no reference
    outside its own body."""
    trees = {}
    for folder in SCANNED:
        trees.update(_trees(folder))
    # name -> ids of the nodes that reference it
    references: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _referenced_name(node)
            if name is not None:
                references.setdefault(name, set()).add(id(node))
    offenders = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if not references.get(node.name, set()) - inside:
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} "
                                 f"{node.name}")
    return sorted(offenders)


def test_every_package_definition_has_a_caller_outside_the_tests():
    offenders = unreferenced_definitions()
    assert not offenders, ("defined in src/algossip but referenced only by "
                           "tests, if at all: " + ", ".join(offenders))
