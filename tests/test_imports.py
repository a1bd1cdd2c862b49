"""Module hygiene: a layered, acyclic import graph and no borrowed private names."""

import ast
import os
import subprocess
import sys
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


# Each module imports only modules before it: the layering of the package.
ORDER = ("errors", "rng", "quadrature", "gains", "simulate", "features", "solver", "calibrate",
         "bench", "__init__", "cli")


def test_every_import_points_to_an_earlier_module():
    graph = _graph()
    assert set(graph) == set(ORDER)
    backward = [
        f"{module} imports {dep}"
        for module, deps in graph.items()
        for dep in sorted(deps)
        if ORDER.index(dep) >= ORDER.index(module)
    ]
    assert backward == []


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


def test_the_worker_pool_modules_load_only_for_a_pool():
    # A fresh interpreter, so no other test's imports count.  One CPU keeps
    # bench_toy's fits in this process.
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "import gainreg\n"
        "from gainreg.bench import bench_toy\n"
        "pool = ('multiprocessing', 'concurrent.futures')\n"
        "print([m for m in pool if m in sys.modules])\n"
        "bench_toy(20, 20, [10.0], seed=0, folds=2, restarts=1)\n"
        "print([m for m in pool if m in sys.modules])\n"
    )
    path = os.environ.get("PYTHONPATH")
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]
