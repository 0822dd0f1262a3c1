"""The public surface of the library is what the program calls.

Every public module-level function or class of `src/diffal` must be read,
as a name or an attribute, somewhere in the program: in `src/diffal`
outside its own definition and outside `__init__.py`, or in the benchmark
under `perfbench`.  A definition that only tests or the README reach
belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def referenced_names(tree: ast.Module, path: Path) -> set[tuple[str, tuple[Path, str | None]]]:
    """(name read, (file, top-level definition it is read in)) pairs."""
    out = set()
    for node in tree.body:
        owner = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add((sub.id, (path, owner)))
            elif isinstance(sub, ast.Attribute):
                out.add((sub.attr, (path, owner)))
    return out


def unreferenced_definitions() -> list[str]:
    modules = sorted((ROOT / "src" / "diffal").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    reads = set()
    for path in [*modules, *sorted((ROOT / "perfbench").glob("*.py"))]:
        if path.name != "__init__.py":
            tree = trees.get(path) or ast.parse(path.read_text(encoding="utf-8"))
            reads |= referenced_names(tree, path)
    readers: dict[str, set] = {}
    for name, owner in reads:
        readers.setdefault(name, set()).add(owner)

    missing = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not readers.get(node.name, set()) - {(path, node.name)}):
                missing.append(f"{path.stem}.{node.name}")
    return missing


def test_every_public_definition_is_read_by_the_program():
    assert unreferenced_definitions() == []
