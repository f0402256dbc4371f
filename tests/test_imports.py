"""Stdlib stand-ins for an unused-import lint and an `__all__` check over the
library modules."""

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_in_all_resolves(path):
    module = importlib.import_module(f"qqmems.{path.stem}")
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == [], f"{path.name} lists {missing} in __all__ but does not define them"
