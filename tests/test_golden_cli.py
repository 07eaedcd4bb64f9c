"""CLI outputs against the recorded digests of the benchmark's golden file."""

import hashlib
import json
from pathlib import Path

import pytest

from bicliff.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


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
    for n in range(2, 8):
        args = ["werner", "--n", str(n), "--cache", cache]
        assert stdout_digest(capsys, args) == golden[f"werner_n{n}"], n
    for metric in ("fidelity", "yield", "ree", "target-rate"):
        args = ["compare", "--n-min", "2", "--n-max", "7", "--metric", metric, "--cache", cache]
        assert stdout_digest(capsys, args) == golden[f"compare_{metric}"], metric
