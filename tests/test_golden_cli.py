"""CLI outputs against recorded digests: the benchmark's golden file, and SVG plots.

Every digest in the golden file is checked here, with the arguments the
benchmark (perfbench/run.py) passes, so a changed byte fails before the
benchmark runs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bicliff.cache import write_werner_cache
from bicliff.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden.json"
# sha256 of `compare --n-min 2 --n-max 7 --metric <metric> --svg` on the default grid
SVG_DIGESTS = {
    "fidelity": "5a643596b79293fba2848a26874b103a8e92bcc40a3bf16ebba778be60fbfc31",
    "yield": "d4b7fea34feff5488ffd9ca88a0bcef16fbcf47dbf1a225f96e0fafcc8b15372",
    "ree": "9162c023215ed379b29b66ce932cb3a0dc4b336bbfed2c280a42a9b9a12e1e8f",
    "target-rate": "cfcb0e6e859f61d793593c4485c0e5662066aa3cb515361a4ad31606f2ed05f0",
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def stdout_digest(capsys, args) -> str:
    capsys.readouterr()
    assert main(args) == 0, args
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_cli_outputs_match_golden_digests(golden, tmp_path, capsys):
    assert stdout_digest(capsys, ["tables", "--n-max", "4"]) == golden["tables"]
    cache = str(tmp_path)
    for n in range(2, 9):
        args = ["werner", "--n", str(n), "--cache", cache]
        assert stdout_digest(capsys, args) == golden[f"werner_n{n}"], n
    for metric in ("fidelity", "yield", "ree", "target-rate"):
        args = ["compare", "--n-min", "2", "--n-max", "7", "--metric", metric, "--cache", cache]
        assert stdout_digest(capsys, args) == golden[f"compare_{metric}"], metric
    # analysis-n7's verify, which compares all 379 records with or without the flag
    assert main(["verify", f"{cache}/werner_n7.bcp", "--sample", "1000000"]) == 0
    assert capsys.readouterr().out == "checked=379 ok=1 ok\n"


def test_general_inputs_match_golden_digests(golden, tmp_path, capsys, monkeypatch):
    # general-n4's transversal and the eval of its three default-seed states
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from run import make_states

    cache = str(tmp_path / "cache")
    args = ["transversal", "--n", "4", "--jobs", "2", "--seed", "0", "--cache", cache]
    assert stdout_digest(capsys, args) == golden["transversal_n4"]
    for i, state in enumerate(make_states(0)):
        path = tmp_path / f"state_{i}.json"
        path.write_text(json.dumps(state))
        assert stdout_digest(capsys, ["eval", str(path), "--cache", cache]) == golden[f"eval_{i}"], i


def test_compare_svg_matches_recorded_digests(protocols_for, tmp_path):
    for n in range(2, 8):
        write_werner_cache(tmp_path / f"werner_n{n}.bcp", n, protocols_for(n))
    for metric, digest in SVG_DIGESTS.items():
        svg = tmp_path / f"{metric}.svg"
        args = ["compare", "--n-min", "2", "--n-max", "7", "--metric", metric,
                "--cache", str(tmp_path), "--svg", str(svg)]
        assert main(args) == 0, args
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest, metric
