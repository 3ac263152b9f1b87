"""Every module-level import of the library is used in its module."""
import ast
from pathlib import Path

import pytest

import mm_lab

_MODULES = sorted(p for p in Path(mm_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of ``source`` that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = (Path(mm_lab.__file__).parent / "experiments.py").read_text()
    assert unused_imports("import os\n" + source) == [(1, "os")]
    assert unused_imports("from os import path, sep\nprint(sep)\n") == [(1, "path")]
