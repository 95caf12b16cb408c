"""The benchmark's self-test passes on this checkout.

`perfbench/selftest.py` runs every workload at a tiny size and plants one
wrong result per output check.  It binds names of the package by hand
(`cli.vertices`, `polytope.solve_max`, the `.bits` of `encode_multicast`'s
payloads), so a change under `src` that breaks one of them fails here, not
only when the benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},  # leave perfbench/ as checked in
        timeout=300,
    )
    assert proc.returncode == 0, (proc.stdout.decode()[-2000:], proc.stderr.decode()[-4000:])
