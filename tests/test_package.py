"""The package's public surface: ``__all__`` names exactly what ``__init__`` imports;
its layering: the modules import one another one way, at module level; and its thread
policy: importing it before numpy loads BLAS single-threaded."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import movingheat

SRC = Path(movingheat.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def package_imports(tree):
    """(node, imported module) for every import of a sibling module in ``tree``, at module
    level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            yield from ((node, name) for name in names if name in MODULES)


def test_every_name_in_all_resolves():
    assert len(set(movingheat.__all__)) == len(movingheat.__all__)
    for name in movingheat.__all__:
        assert getattr(movingheat, name).__module__.startswith("movingheat."), name


def test_all_equals_the_imported_public_names():
    # a deletion that drops a name from one list but not the other fails here
    imported = {name for name, value in vars(movingheat).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(movingheat.__all__) == imported


def test_module_imports_have_no_cycle():
    graph = {name: {dep for _, dep in package_imports(tree)} - {name}
             for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):  # depth-first; a module met again on the current path closes a cycle
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_modules_import_each_other_only_at_module_level():
    for name, tree in MODULES.items():
        top = set(tree.body)
        for node, dep in package_imports(tree):
            assert node in top, f"{name} imports {dep} inside a function, line {node.lineno}"


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def fresh_interpreter(code, **preset):
    """Run ``code`` in a new interpreter whose environment has none of the four BLAS
    thread variables except ``preset``; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


REPORT = ("import os; print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task')"
          " else -1, *(os.environ.get(k) for k in %r))" % (THREAD_VARIABLES,))


def test_importing_the_package_first_loads_blas_single_threaded():
    threads, *values = fresh_interpreter("import movingheat\n" + REPORT).split()
    assert values == ["1"] * 4
    if threads == "-1":
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == "1"


def test_a_thread_count_set_by_the_user_is_kept():
    _, openblas, *others = fresh_interpreter("import movingheat\n" + REPORT,
                                             OPENBLAS_NUM_THREADS="3").split()
    assert openblas == "3" and others == ["1"] * 3


def test_numpy_imported_first_is_left_alone():
    _, *values = fresh_interpreter("import numpy, movingheat\n" + REPORT).split()
    assert values == ["None"] * 4
