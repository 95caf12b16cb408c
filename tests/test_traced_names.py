"""Every function the benchmark's layer tracer wraps by name still exists.

`perfbench/layertrace.py` patches each `(module, attribute path)` in its
`TRACED` list at install time, and a name that no longer resolves crashes
every traced run.  The tracer module is only imported here, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


_spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
layertrace = importlib.util.module_from_spec(_spec)
_writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache under perfbench/
try:
    _spec.loader.exec_module(layertrace)
finally:
    sys.dont_write_bytecode = _writes


@pytest.mark.parametrize("module,attr", layertrace.TRACED, ids=layertrace.LAYER_NAMES)
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"cachecast.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
