"""No module of src/tbtl or tests imports a name that it never uses.

A deleted code path often leaves its imports behind; the names are read
from the syntax tree, so nothing is imported to check them.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tbtl"


def unused_imports(source: str) -> list[str]:
    """The names that source binds by import (apart from __future__
    features) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_name_never_read():
    source = "import os.path\nimport sys as system\nfrom math import inf, pi\nprint(system.argv, inf)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
