"""The Fraction oracles read none of the code they check.

`tests/fraction_oracles.py` is compared value for value with `cachecast.tradeoff`,
so it must not take K*mu, the chord or any other view from a `SystemConfig`
(only its inputs K, N, mu and alpha), nor anything from `cachecast.tradeoff`
but the converse constant.  This walks the oracle file's syntax tree.
"""

import ast
from pathlib import Path

import cachecast
from cachecast import tradeoff

ORACLES = Path(__file__).resolve().parent / "fraction_oracles.py"

#: what `SystemConfig` derives from its inputs
DERIVED = {"cache_budget", "_budget", "_chord", "integer_budget"}
#: the one name of `cachecast.tradeoff` the oracles may import
ALLOWED = {"CONVERSE_FACTOR"}
#: names `cachecast` re-exports from `tradeoff`
REEXPORTED = {name for name in vars(cachecast) if getattr(tradeoff, name, None) is getattr(cachecast, name)}


def derived_reads(source: str) -> list[str]:
    """Each read of a config's derived view or of `cachecast.tradeoff`, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in DERIVED:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in DERIVED:
            found.append(f"{node.lineno}: {node.value!r}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name == "cachecast.tradeoff"]
        elif isinstance(node, ast.ImportFrom) and node.module == "cachecast.tradeoff":
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name not in ALLOWED]
        elif isinstance(node, ast.ImportFrom) and node.module == "cachecast":
            found += [f"{node.lineno}: {a.name}" for a in node.names
                      if a.name == "tradeoff" or (a.name in REEXPORTED and a.name not in ALLOWED)]
    return found


def test_oracles_read_no_config_view_and_no_tradeoff_code():
    assert derived_reads(ORACLES.read_text()) == []


def test_detects_each_kind_of_read():
    source = "\n".join([
        "from cachecast.tradeoff import CONVERSE_FACTOR, gndt_ub",
        "from cachecast import tradeoff, gndt_memory_sharing, caching",
        "import cachecast.tradeoff",
        "x = config.cache_budget + config._budget[0]",
        "y = config._chord, config.integer_budget, getattr(config, '_budget')",
        "z = config.num_users * config.mu",
    ])
    assert sorted(derived_reads(source)) == sorted([
        "1: gndt_ub", "2: tradeoff", "2: gndt_memory_sharing", "3: import cachecast.tradeoff",
        "4: .cache_budget", "4: ._budget", "5: ._chord", "5: .integer_budget", "5: '_budget'",
    ])
