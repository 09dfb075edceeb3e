"""The package's public surface: ``__all__`` names exactly what ``__init__`` imports;
and its layering: the modules import one another one way, at module level."""

import ast
import types
from pathlib import Path

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
