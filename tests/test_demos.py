"""Every demo script runs to completion in a fresh interpreter.

The demos use the public API the way a reader would (`coset_key`,
`werner_stats`, `enumerate_stats` and more), so a change that breaks one
of them fails here.  Each runs in an empty working directory, and its
standard output is pinned by its SHA-256 digest: every demo is seeded, so a
change that moves one printed byte fails here too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
STDOUT_SHA256 = {
    "01_group_structure": "d48d0337e749d0c7e9ebf5e4e3fd7d41ed1f12540123d35be81771e138d2db76",
    "02_general_inputs": "7ba04d3c5a950c9ff540759b410228a6932adcbcf5e7b39d6e199849b13116d8",
    "03_werner_enumeration": "5f8f0df392183c12953e08f8b8565b46d0c3376286046abd6148ee101ed1f639",
    "04_circuits": "f88cf24b78c5ad532f66857806ea15655b702f94a2868e248589a308259eadc7",
    "05_baselines_and_metrics": "ba6c96abf66f65c4a36ab5e8ea597b3d94e98218ea0500bf54cd447991be1d68",
}


def test_every_demo_is_collected():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]
    assert [d.stem for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem], res.stdout
