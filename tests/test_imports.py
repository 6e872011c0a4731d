"""Every module of the package uses each name it imports.

No linter runs with the test suite, so this reads each module's syntax
tree.  ``__init__.py`` is left out: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

import crspec

MODULES = sorted(p for p in Path(crspec.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom fractions import Fraction\nprint(Fraction(1))\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
