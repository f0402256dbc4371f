"""Stdlib stand-ins for an unused-import lint, a lint against `assert` and an
`__all__` check over the library modules."""

import ast
import importlib
from pathlib import Path

import pytest

import qqmems

MODULES = sorted(p for p in Path(qqmems.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports (at any depth) but neither uses nor lists in
    __all__, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert unused == [], f"{path.name} imports {unused} without using them"


def assert_lines(source):
    """Line numbers of the `assert` statements in a module, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_checker_finds_asserts():
    source = "assert x\ndef f(y):\n    if y:\n        assert y > 0, 'y'\n    return AssertionError\n"
    assert assert_lines(source) == [1, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_in_library_code(path):
    # `python -O` strips asserts, so a runtime check written as one is no check.
    lines = assert_lines(path.read_text())
    assert lines == [], f"{path.name} uses assert on lines {lines}; raise an exception instead"


def test_package_exports_the_library_modules_all():
    # `cli` is the console entry point; the package re-exports the library.
    lists = [
        importlib.import_module(f"qqmems.{p.stem}").__dict__.get("__all__", [])
        for p in MODULES
        if p.stem != "cli"
    ]
    union = [name for names in lists for name in names]
    assert sorted(qqmems.__all__) == sorted(union)
    assert len(set(union)) == len(union), "a name is in two modules' __all__"
    assert all(hasattr(qqmems, name) for name in union)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_in_all_resolves(path):
    module = importlib.import_module(f"qqmems.{path.stem}")
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == [], f"{path.name} lists {missing} in __all__ but does not define them"


def test_the_fixed_purity_spectra_are_exported():
    for name in ("rank2_spectrum", "rank3_spectrum", "deg_spectrum"):
        assert getattr(qqmems, name) is getattr(qqmems.purity_mems, name)
