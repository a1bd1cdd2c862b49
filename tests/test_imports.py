"""Module hygiene: an acyclic import graph and no borrowed private names."""

import ast
from pathlib import Path

import gainreg as gr

PACKAGE = Path(gr.__file__).resolve().parent


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _imports(path: Path):
    """(imported module, imported names, at module level?) for each package import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:  # from .module import ..., or from . import ...
            module = node.module or "__init__"
        elif (node.module or "").partition(".")[0] == "gainreg":
            module = node.module.partition(".")[2] or "__init__"
        else:
            continue
        yield module, [a.name for a in node.names], id(node) in top


def _graph() -> dict[str, set[str]]:
    return {
        path.stem: {module for module, _, _ in _imports(path)}
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_import_graph_is_acyclic():
    graph = _graph()
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, "import cycle: " + " -> ".join((*path, module))
        if module in done:
            return
        for dep in sorted(graph.get(module, ())):
            visit(dep, (*path, module))
        done.add(module)

    for module in graph:
        visit(module, ())


def test_no_module_imports_another_modules_private_names():
    borrowed = [
        f"{path.stem} imports {module}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, names, _ in _imports(path)
        for name in names
        if name.startswith("_") and not _dunder(name)
    ]
    assert borrowed == []


def test_package_imports_sit_at_module_level():
    local = [
        f"{path.stem} imports {module} inside a function"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, _, top in _imports(path)
        if not top
    ]
    assert local == []
