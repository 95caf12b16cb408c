"""Every catalogued mutant of `src` fails the tests named as its killers.

Each mutant is applied to a copy of `src` under a temporary directory, and
only its killers run, in a subprocess whose `PYTHONPATH` is that copy.  The
subprocess reports which file the mutated module was imported from, so a
killer cannot pass or fail against the unmutated package by accident.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parents[1]

# imports the mutated module first, runs the killers, then prints where the
# module the killers saw came from; the exit code is pytest's.  A killer only
# has to fail, so Hypothesis neither shrinks nor explains its counterexample
# (explaining one alone can outlast the timeout below), and it keeps no
# example database, so no run reads what another mutant's run stored
RUNNER = """
import importlib, sys
import pytest
from hypothesis import Phase, settings
settings.register_profile("mutant", database=None, phases=(Phase.explicit, Phase.generate))
settings.load_profile("mutant")
module = importlib.import_module(sys.argv[1])
code = pytest.main(["-q", "-x", "-p", "no:cacheprovider", *sys.argv[2:]])
print("imported from", sys.modules[sys.argv[1]].__file__, module is sys.modules[sys.argv[1]])
sys.exit(code)
"""


def module_path(src: Path, module: str) -> Path:
    return src.joinpath(*module.split(".")).with_suffix(".py")


def test_catalogue_names_each_mutant_once_and_applies_to_src():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        text = module_path(ROOT / "src", mutant.module).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.why, mutant.name


@pytest.mark.parametrize(
    "mutant", [m for m in MUTANTS if m.killers != EQUIVALENT], ids=lambda m: m.name
)
def test_mutant_fails_its_killers(mutant, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = module_path(src, mutant.module)
    text = path.read_text()
    assert text.count(mutant.old) == 1
    path.write_text(text.replace(mutant.old, mutant.new))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, mutant.module, *mutant.killers],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    out = proc.stdout.decode()
    assert f"imported from {path} True" in out, (out[-2000:], proc.stderr.decode()[-2000:])
    # pytest's exit code 1 is "tests ran and some failed"; a killer id that
    # names no test is a usage error (4) or collects nothing (5)
    assert proc.returncode == pytest.ExitCode.TESTS_FAILED, out[-2000:]
