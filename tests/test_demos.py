"""Every demo runs to completion and prints exactly what it printed before."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "coded_delivery_walkthrough.py": (752, "b812a04886718d60cff92c4fad94227d121e76e99619e598fb7a9a3fc3bc7599"),
    "finite_power_gap.py": (417, "ff9c275ba4a8f8ef1c6b93b2731fc196735f0364d069ef7556d5b3a1f71adfef"),
    "memory_tradeoff_curve.py": (2136, "3d48014a06a98aae38b097bd7e55773abdefec4b9d00da12c32de97185043d65"),
    "region_projection.py": (479, "2ae44f9db8e3fade9d7d1319aad72585502da52040ecbf2cba10fba714b97f2b"),
    "topological_holes.py": (473, "5a87a6bd778c7885be8c19fb976e222ab2bba111d1ad0959657b787e1ec35170"),
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_output_is_byte_identical(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    data = proc.stdout
    assert (len(data), hashlib.sha256(data).hexdigest()) == DEMOS[demo]
