"""Every top-level import of a package module is used by that module, and
every public function or class of the package is used by the system.

No linter ships with the project, so this walks syntax trees:

* a name bound by a top-level `import` or `from ... import` must be read
  somewhere in its module;
* a public top-level `def` or `class` must be read (as a name, an attribute
  or an imported name), and a public method or property of a public class
  must be read as an attribute, somewhere in the package, `demos/` or
  `perfbench/`, unless `TEST_FACING` names it with the reason it is kept.

A parameter or local that shares a method's name is not a read of it.  The
check matches attributes by name, not by owner, with one exception: a module
that defines its own public member `m` reads `x.m` as its own, so that read
keeps no other module's `m` alive.  Any other read of `x.m` keeps every
public `m` alive, so a method that shares its name with a used one can still
be dead and pass.

`__init__.py` is skipped by both, since its imports are the package's exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cachecast"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

#: public names only the tests call, each with the reason it stays
TEST_FACING = {
    "solve_square": "the benchmark's layer tracer wraps it by name; tests use it as a vertex oracle",
    "fix_variables": "pins coordinates of a region in the region and trade-off tests",
    "max_symmetric_gdof": "closed form the symmetric-projection tests check against the LP",
    "is_convex_sequence": "states the convexity lemma the load-sequence tests check",
    "multicast_load_sequence": (
        "the benchmark's layer tracer wraps it by name; the Fraction oracles build load sequences from it"
    ),
    "gdof_region_inner": "the unicast region inside a delivery time, checked against gndt_ub",
    "maximize": "Polytope's one-objective LP: the region, trade-off and polytope tests read optima off it",
    "digest": "CacheContents' fingerprint: the caching tests pin each seeded library's placement by it",
    "contains": "Polytope's exact point-membership check, which the projection, level-system and vertex tests use",
}


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


def numpy_imports(source: str) -> list[int]:
    """The line of every import of numpy or a numpy submodule, at any depth."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy"
    )


def test_no_module_imports_numpy():
    """The package runs on the standard library alone; numpy is a test oracle."""
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if numpy_imports(p.read_text())] == []


def test_importing_the_package_leaves_numpy_unloaded():
    """A fresh interpreter imports the package and its command line without loading numpy."""
    probe = "import sys, cachecast, cachecast.cli; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_detects_a_numpy_import():
    source = (
        "import os, numpy.random\nfrom . import numpy\nimport numpyish\n"
        "def f():\n    from numpy import ndarray\n    import numpy as np\n"
    )
    assert numpy_imports(source) == [1, 5, 6]


def public_definitions(source: str) -> list[tuple[str, bool]]:
    """(name, is a member) for the public top-level functions and classes,
    then the public methods and properties of each public class."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append((node.name, False))
            if isinstance(node, ast.ClassDef):
                names += [(item.name, True) for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def names_read(source: str) -> tuple[set[str], set[str]]:
    """(every name read as a name, an attribute or an import, the attributes read)."""
    read, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
    return read | attributes, attributes


def dead_names(definers: list[str], readers: list[str]) -> list[str]:
    reads = [names_read(source) for source in readers]
    read = set().union(*(names for names, _ in reads))
    owned = [{name for name, member in public_definitions(source) if member} for source in readers]

    def member_read(name: str, definer: str) -> bool:
        """Some reader reads `.name`: the definer itself, or a module with no public `name` of its own."""
        return any(name in attrs and (reader == definer or name not in own)
                   for reader, (_, attrs), own in zip(readers, reads, owned))

    return [name for source in definers for name, member in public_definitions(source)
            if not (member_read(name, source) if member else name in read)]


def test_every_public_name_is_used():
    dead = set(dead_names([p.read_text() for p in MODULES], [p.read_text() for p in READERS]))
    assert sorted(dead - TEST_FACING.keys()) == [], "public names that nothing reads"
    assert sorted(TEST_FACING.keys() - dead) == [], "TEST_FACING names that are gone or now read"


def test_detects_a_dead_name():
    definer = "def used():\n    pass\n\ndef _private():\n    pass\n\nclass Dead:\n    x = 1\n"
    # a definition, an assignment or an attribute store is not a read
    readers = [definer, "from m import used as u\n", "Dead = 1\nm.Dead = 2\n"]
    assert dead_names([definer], readers) == ["Dead"]
    assert dead_names([definer], ["import m\nm.Dead()\nused()\n"]) == []


def test_detects_a_dead_method_or_property():
    definer = (
        "class Kept:\n"
        "    def read(self):\n        pass\n"
        "    @property\n    def size(self):\n        pass\n"
        "    def _helper(self):\n        pass\n"
        "    def __len__(self):\n        pass\n"
        "class _Private:\n    def unread(self):\n        pass\n"
    )
    assert dead_names([definer], ["k = Kept()\n"]) == ["read", "size"]
    assert dead_names([definer], ["Kept().read()\nprint(Kept().size)\n"]) == []
    # a parameter or local of the same name reads neither
    shadows = "def f(read):\n    size = read\n    return size\nKept()\n"
    assert dead_names([definer], [shadows]) == ["read", "size"]


def test_a_module_reads_its_own_member_before_another_class():
    definer = "class Kept:\n    def contains(self, x):\n        pass\n"
    own = "class Own:\n    def contains(self, x):\n        pass\n\nOwn().contains(Kept())\n"
    # `own` reads `.contains` as Own's, so Kept's is dead; Own's own read keeps it alive
    assert dead_names([definer, own], [definer, own]) == ["contains"]
    # a module with no `contains` of its own reads every class's
    assert dead_names([definer, own], [definer, own, "Kept().contains(1)\n"]) == []
