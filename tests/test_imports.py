"""Every top-level import of a package module is used by that module, and
every public function or class of the package is used by the system.

No linter ships with the project, so this walks syntax trees:

* a name bound by a top-level `import` or `from ... import` must be read
  somewhere in its module;
* a public top-level `def` or `class` must be read (as a name, an attribute
  or an imported name), and a public method or property of a public class
  must be read as an attribute, somewhere in the package, `demos/` or
  `perfbench/`, unless `TEST_FACING` names it with the reason it is kept;
* every cache and one-entry slot the package keeps between calls must be
  listed in `KEPT_STATE` with the command or workload whose repeated calls
  it serves.

A parameter or local that shares a method's name is not a read of it.  The
check matches attributes by name, not by owner, with one exception: a module
that defines its own public member `m` reads `x.m` as its own, so that read
keeps no other module's `m` alive.  Any other read of `x.m` keeps every
public `m` alive, so a method that shares its name with a used one can still
be dead and pass.

`__init__.py` is skipped by the first two, since its imports are the package's exports.
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
    "multicast_load_sequence": (
        "the benchmark's layer tracer wraps it by name; the Fraction oracles build load sequences from it"
    ),
    "gdof_region_inner": "the unicast region inside a delivery time, checked against gndt_ub",
    "maximize": "Polytope's one-objective LP: the region, trade-off and polytope tests read optima off it",
    "contains": "Polytope's exact point-membership check, which the projection, level-system and vertex tests use",
    "region_contains": (
        "one-way containment; the polytope, region and trade-off tests certify inclusions with it, and "
        "regions_equal reads both directions off one scaling instead of calling it twice"
    ),
}

#: state the package keeps between calls: every `functools.cache`/`lru_cache`
#: and every one-entry slot a function stores into, each with what its repeated
#: calls serve.  A cache that no workload repeats is waste; one not listed fails
#: `test_kept_state_is_listed`
KEPT_STATE = {
    "caching._reconstruction_sources": (
        "verify: the demand tuples of one (K, N, t) repeat each (group, leaders, demand pattern)"
    ),
    "regions.unicast_name": (
        "the names r_k of every region skeleton and of every gaps check: gndt and sweep-memory per curve, holes "
        "per vertex"
    ),
    "regions._full_skeleton": (
        "build_region's (K, sigma) rows for each strengths draw: verify's region stage, the region-certify "
        "certifications, and finite-snr's inner and outer regions"
    ),
    "regions._beta_skeleton": "beta_parameterized_polytope's (K, sigma) rows: verify's region stage and region-certify",
    "tradeoff._count_table": "gndt and sweep-memory: one count table per (K, min(K, N)) for every mu and curve",
    "combinatorics._kept_hull": "gndt and sweep-memory's tau_ms column: the integer-budget times hulled once per curve",
    "tradeoff._Curve.kept": "gndt, sweep-memory and holes: one record per checked strengths object, r and min(K, N)",
}


def caches(node) -> bool:
    """`node` is cache, lru_cache, functools.cache or functools.lru_cache, or a call of one."""
    while isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in {"cache", "lru_cache"}


def kept_state(source: str, module: str) -> list[str]:
    """`module.name` of the state a module keeps between calls: each function
    wrapped in a cache, by a decorator or a top-level call, each module-level
    name a function stores into by subscript or declares `global`, and each
    class attribute a function stores into (`cls.kept = ...`).  Per-object
    caches (`cached_property`, a dict on an instance) live and die with their
    object and are not listed."""
    tree = ast.parse(source)
    top = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
           for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)}
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    found = {t.id for node in tree.body if isinstance(node, ast.Assign) and caches(node.value)
             for t in node.targets if isinstance(t, ast.Name)}
    functions = [(None, node) for node in tree.body]
    functions += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body]
    for owner, func in functions:
        if not isinstance(func, ast.FunctionDef):
            continue
        if any(map(caches, func.decorator_list)):
            found.add(func.name if owner is None else f"{owner}.{func.name}")
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.update(node.names)
            elif (isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)):
                name = node.value.id
                if isinstance(node, ast.Subscript) and name in top:
                    found.add(name)
                elif isinstance(node, ast.Attribute) and (name in classes or name == "cls" and owner):
                    found.add(f"{owner if name == 'cls' else name}.{node.attr}")
    return sorted(f"{module}.{name}" for name in found)


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


def test_kept_state_is_listed():
    kept = {name for path in sorted(PACKAGE.glob("*.py")) for name in kept_state(path.read_text(), path.stem)}
    assert sorted(kept - KEPT_STATE.keys()) == [], "state kept between calls that KEPT_STATE does not list"
    assert sorted(KEPT_STATE.keys() - kept) == [], "KEPT_STATE names that are gone"


def test_detects_kept_state():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "_slot = [None]\nname = cache(str.format)\n_p = functools.cache(print)\n_q = functools.partial(print)\n"
        "@lru_cache(maxsize=4)\ndef table(k):\n    return k\n"
        "def keep(x):\n    global _last\n    _slot[:] = [x]\n    local = {}\n    local[x] = 1\n"
        "class Record:\n    kept = None\n"
        "    @classmethod\n    def of(cls, x):\n        cls.kept = x\n        return cls\n"
        "    def __init__(self):\n        self.value = 1\n"
        "    @functools.cache\n    def shared(self):\n        return 1\n"
        "def reset():\n    Record.other = None\n"
    )
    assert kept_state(source, "m") == [
        "m.Record.kept", "m.Record.other", "m.Record.shared", "m._last", "m._p", "m._slot", "m.name", "m.table"]


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
    """A fresh interpreter imports the package and its command line without
    loading numpy, and, since every command pays for the import, without
    dataclasses (whose import loads inspect, ast, dis and tokenize) or hashlib."""
    probe = ("import sys, cachecast, cachecast.cli; "
             "print([m for m in ('numpy', 'dataclasses', 'inspect', 'hashlib') if m in sys.modules])")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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
