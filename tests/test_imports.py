"""Every top-level import of a package module is used by that module.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by a top-level `import` or `from ... import` must be read
somewhere in the module.  `__init__.py` is skipped, since its imports are
the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cachecast"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_package_has_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = (
        "import math\nfrom fractions import Fraction\nfrom os import path as p\nx = Fraction(1)\n"
    )
    assert unused_imports(source) == ["line 1: math", "line 3: p"]
