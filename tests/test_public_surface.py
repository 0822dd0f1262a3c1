"""The public surface of the library is what the program calls.

Every public module-level function or class of `src/diffal` must be read,
as a name or as an attribute of a module (`da.purity`, `diffal.cli.main`),
somewhere in the program: in `src/diffal` outside its own definition and
outside `__init__.py`, or in the benchmark under `perfbench`.  A read of
an attribute of anything else (`counts.purity()`) is a method or a field,
not the definition.  A definition that only tests or the README reach
belongs in the tests.

Every field of a `src/diffal` dataclass must be read as an attribute
somewhere in `src/diffal`, `perfbench` or `tests`; tests count here, since
result fields are what tests observe.  The match is by name alone, so a
field is missed while any attribute of its name is read: an unread
`SparseKernelMatrix.sigma` would hide behind reads of `DiffusionModel.sigma`,
and was removed by hand.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def dotted(node: ast.expr) -> str | None:
    """`a.b.c` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def module_names(tree: ast.Module) -> set[str]:
    """The dotted names that `import` statements bind to modules: `import
    diffal.cli` binds `diffal` and `diffal.cli`, `import diffal as da` `da`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                out |= {alias.asname} if alias.asname else {
                    ".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    return out


def referenced_names(tree: ast.Module, path: Path) -> set[tuple[str, tuple[Path, str | None]]]:
    """(name read, (file, top-level definition it is read in)) pairs, for
    each name and each attribute of a module."""
    modules = module_names(tree)
    out = set()
    for node in tree.body:
        owner = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add((sub.id, (path, owner)))
            elif isinstance(sub, ast.Attribute) and dotted(sub.value) in modules:
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


def unread_dataclass_fields() -> list[str]:
    paths = [*sorted((ROOT / "src" / "diffal").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "diffal":
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d, "func", d).id == "dataclass" for d in node.decorator_list):
                unread += [f"{path.stem}.{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in reads]
    return unread


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == []


def unread_imports() -> list[str]:
    """`module.name` for each name a `src/diffal` module imports and never
    reads; `__init__.py` imports to re-export, and `__future__` imports
    switch on language features."""
    unread = []
    for path in sorted((ROOT / "src" / "diffal").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {sub.id for sub in ast.walk(tree)
                 if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unread += [f"{path.stem}.{alias.asname or alias.name.split('.')[0]}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in reads]
    return unread


def test_no_module_imports_a_name_it_never_reads():
    assert unread_imports() == []
