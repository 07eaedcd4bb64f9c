import json
import subprocess
import sys

import pytest

from bicliff.cache import (
    load_transversal_cache,
    load_werner_cache,
    read_cache,
    verify_cache,
    write_transversal_cache,
    write_werner_cache,
)
from bicliff.cli import main
from _reference import EXAMPLE_PAIR


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory, protocols_for, transversal_for):
    d = tmp_path_factory.mktemp("cache")
    write_werner_cache(d / "werner_n2.bcp", 2, protocols_for(2))
    write_werner_cache(d / "werner_n3.bcp", 3, protocols_for(3))
    write_werner_cache(d / "werner_n4.bcp", 4, protocols_for(4))
    write_transversal_cache(d / "transversal_n2.bcp", transversal_for(2), seed=0)
    return d


def test_cache_roundtrip(cache_dir, protocols_for):
    header, protocols = load_werner_cache(cache_dir / "werner_n3.bcp")
    assert header["n"] == 3 and header["count"] == 5
    original = protocols_for(3)
    assert len(protocols) == len(original)
    for a, b in zip(protocols, original):
        assert a.stats == b.stats
        assert a.rep == b.rep
        assert a.source == b.source


def test_transversal_cache_roundtrip(cache_dir, transversal_for):
    header, t = load_transversal_cache(cache_dir / "transversal_n2.bcp")
    assert header["complete"] and t.complete
    assert t.reps == transversal_for(2).reps


def test_verify_cache_ok(cache_dir):
    ok, checked, message = verify_cache(cache_dir / "werner_n3.bcp")
    assert ok and checked == 5 and message == "ok"
    ok, checked, _ = verify_cache(cache_dir / "transversal_n2.bcp")
    assert ok and checked == 15


def test_verify_cache_detects_corruption(cache_dir, tmp_path):
    header, records = read_cache(cache_dir / "werner_n2.bcp")
    records[0]["stats"]["f"][0] = "1/2"
    from bicliff.cache import write_cache

    bad = tmp_path / "bad.bcp"
    header.pop("format_version")
    write_cache(bad, header, records)
    ok, _, message = verify_cache(bad)
    assert not ok and "mismatch" in message


def test_verify_cache_rejects_non_symplectic_rows(cache_dir, tmp_path):
    # the statistics read only rows 0..n, so a flipped bit in the last row
    # leaves them intact; only the symplectic check sees it
    from bicliff.cache import write_cache

    for name in ("werner_n3.bcp", "transversal_n2.bcp"):
        header, records = read_cache(cache_dir / name)
        header.pop("format_version")
        records[-1]["rows"][-1] ^= 1
        bad = tmp_path / name
        write_cache(bad, header, records)
        ok, checked, message = verify_cache(bad, sample=len(records))
        assert not ok and "not symplectic" in message, name
        assert checked == len(records) - 1


def test_write_cache_is_atomic(cache_dir, tmp_path):
    from bicliff.cache import write_cache

    path = tmp_path / "werner_n3.bcp"
    path.write_bytes((cache_dir / "werner_n3.bcp").read_bytes())
    before = path.read_bytes()
    header, records = read_cache(path)

    def failing_records():
        yield records[0]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_cache(path, header, failing_records())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["werner_n3.bcp"]


def test_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.bcp"
    p.write_bytes(b"nonsense")
    with pytest.raises(ValueError):
        read_cache(p)


def test_rejects_truncated_file(cache_dir, tmp_path):
    data = (cache_dir / "werner_n3.bcp").read_bytes()
    for cut in (7, len(data) // 2, len(data) - 3):
        p = tmp_path / f"cut{cut}.bcp"
        p.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            read_cache(p)


# --- CLI ------------------------------------------------------------------------


def test_cli_tables(capsys):
    assert run_cli(["tables", "--n-min", "2", "--n-max", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,sp_order,distill_subgroup_order,coset_count"
    assert lines[1] == "2,720,48,15"
    assert lines[2] == "3,1451520,4608,315"
    assert lines[3] == "4,47377612800,4128768,11475"
    assert lines[4] == "5,24815256521932800,31708938240,782595"


def test_cli_tables_n1(capsys):
    run_cli(["tables", "--n-min", "1", "--n-max", "1"])
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row == "1,6,6,1"


def test_cli_werner_summary(tmp_path, capsys):
    import time

    t0 = time.time()
    code = run_cli(["werner", "--n", "2", "--cache", str(tmp_path)])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0 and elapsed < 1.0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "2" and row[1] == "2" and row[2] == "2"
    assert "8/9*F^2 - 4/9*F + 5/9" in out
    assert (tmp_path / "werner_n2.bcp").exists()


def test_cli_werner_n4_summary(tmp_path, capsys):
    code = run_cli(["werner", "--n", "4", "--cache", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[:3] == ["4", "60", "13"]


def test_cli_circuit_fallback_to_published(cache_dir, tmp_path, capsys):
    out = tmp_path / "circ4.json"
    code = run_cli([
        "circuit", "--n", "4", "--cache", str(cache_dir),
        "--budget", "0", "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert code == 4  # budget exhausted, published circuit printed instead
    assert "falling back" in printed and "verified" in printed
    assert "two_qubit_gates=4 depth=3" in printed


def test_cli_eval(cache_dir, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    code = run_cli(["eval", str(state), "--cache", str(cache_dir)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coset_key,p_suc,f_out,f1,f2,f3,envelope"
    assert len(lines) == 16
    assert any(abs(float(line.split(",")[1]) - 0.75) < 1e-12 for line in lines[1:])


def test_cli_eval_probs_form_single_pair(tmp_path, capsys):
    from bicliff.cache import write_transversal_cache
    from bicliff.transversal import build_transversal

    write_transversal_cache(
        tmp_path / "transversal_n1.bcp", build_transversal(1, seed=0), seed=0
    )
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 1, "probs": [0.7, 0.15, 0.10, 0.05]}))
    code = run_cli(["eval", str(state), "--cache", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # single coset: nothing is measured
    row = lines[1].split(",")
    assert float(row[1]) == 1.0 and abs(float(row[2]) - 0.7) < 1e-12


def test_cli_eval_missing_cache(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 3, "pairs": [list(EXAMPLE_PAIR)] * 3}))
    code = run_cli(["eval", str(state), "--cache", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "bicliff transversal --n 3" in err


def test_cli_eval_bad_state(cache_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 2}")
    assert run_cli(["eval", str(bad), "--cache", str(cache_dir)]) == 2


def test_cli_eval_non_finite_or_malformed_state(tmp_path, capsys):
    from bicliff.transversal import build_transversal

    write_transversal_cache(
        tmp_path / "transversal_n1.bcp", build_transversal(1, seed=0), seed=0
    )
    bad = tmp_path / "bad.json"
    for text in (
        '{"n": 1, "probs": [NaN, 0, 0, 0]}',
        '{"n": 1, "probs": [Infinity, 0, 0, 0]}',
        '{"n": 1, "pairs": [[0.7, 0.1, 0.1, 0.1, 0.0]]}',
        '{"n": 1, "pairs": [[0.7, 0.3]]}',
    ):
        bad.write_text(text)
        assert run_cli(["eval", str(bad), "--cache", str(tmp_path)]) == 2
        assert "bad state file" in capsys.readouterr().err


def test_cli_compare_fidelity(cache_dir, capsys):
    code = run_cli([
        "compare", "--n-min", "2", "--n-max", "4", "--metric", "fidelity",
        "--cache", str(cache_dir), "--f-min", "0.7", "--f-max", "0.72",
        "--f-step", "0.01",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "f_in,n,full,dejmps,difference"
    # optimised >= baseline pointwise; strictly better somewhere for n=4
    gap4 = []
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[2]) >= float(parts[3]) - 1e-12
        if parts[1] == "4":
            gap4.append(float(parts[4]))
    assert max(gap4) > 1e-6


def test_cli_compare_ree_matches_scalar(cache_dir, capsys, protocols_for):
    from bicliff.metrics import ree_product
    from bicliff.dejmps import concatenated_candidates
    from bicliff.states import DistStats

    code = run_cli([
        "compare", "--n-min", "3", "--n-max", "3", "--metric", "ree",
        "--cache", str(cache_dir), "--f-min", "0.9", "--f-max", "0.9",
        "--f-step", "0.01",
    ])
    out = capsys.readouterr().out
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    full = max(ree_product(p.stats.evaluate(0.9)) for p in protocols_for(3))
    dejmps = max(
        ree_product(DistStats.from_coset_sums(*k).evaluate(0.9))
        for k in concatenated_candidates(3)
    )
    assert abs(float(row[2]) - full) < 1e-12
    assert abs(float(row[3]) - dejmps) < 1e-12


def test_cli_compare_yield_matches_scalar(cache_dir, capsys, protocols_for):
    from bicliff.metrics import hashing_yield

    code = run_cli([
        "compare", "--n-min", "2", "--n-max", "2", "--metric", "yield",
        "--cache", str(cache_dir), "--f-min", "0.9", "--f-max", "0.9",
        "--f-step", "0.01",
    ])
    out = capsys.readouterr().out
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    full = max(hashing_yield(p.stats.evaluate(0.9), 2) for p in protocols_for(2))
    assert abs(float(row[1]) - full) < 1e-12


def test_cli_compare_deterministic(cache_dir, capsys):
    args = [
        "compare", "--n-min", "2", "--n-max", "2", "--metric", "yield",
        "--cache", str(cache_dir), "--f-min", "0.8", "--f-max", "0.9",
        "--f-step", "0.02",
    ]
    run_cli(args)
    first = capsys.readouterr().out
    run_cli(args)
    second = capsys.readouterr().out
    assert first == second


def test_cli_compare_svg(cache_dir, tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    run_cli([
        "compare", "--n-min", "2", "--n-max", "2", "--metric", "target-rate",
        "--cache", str(cache_dir), "--f-min", "0.85", "--f-max", "0.95",
        "--f-step", "0.01", "--svg", str(svg),
    ])
    capsys.readouterr()
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_cli_circuit(cache_dir, tmp_path, capsys):
    out = tmp_path / "circ.json"
    code = run_cli([
        "circuit", "--n", "2", "--cache", str(cache_dir),
        "--budget", "20000", "--max-hits", "50", "--seed", "1",
        "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert code == 0
    assert "two_qubit_gates=1" in printed
    gates = json.loads(out.read_text())
    assert any(g["gate"] == "CNOT" for g in gates)


def test_cli_verify(cache_dir, capsys):
    assert run_cli(["verify", str(cache_dir / "werner_n2.bcp")]) == 0
    assert "ok=1" in capsys.readouterr().out


def test_cli_transversal_and_budget(tmp_path, capsys):
    code = run_cli([
        "transversal", "--n", "2", "--cache", str(tmp_path), "--seed", "0",
    ])
    assert code == 0
    capsys.readouterr()
    code = run_cli([
        "transversal", "--n", "3", "--cache", str(tmp_path), "--budget", "16",
    ])
    assert code == 4  # budget exhausted -> incomplete transversal


def test_cli_entry_point_subprocess(tmp_path):
    # the installed console script behaves like main()
    res = subprocess.run(
        [sys.executable, "-m", "bicliff.cli", "tables", "--n-min", "2", "--n-max", "2"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stdout.splitlines()[1] == "2,720,48,15"


@pytest.mark.parametrize(
    "metric, flags, message",
    [
        ("target-rate", ["--f-tar", "1.5"], "--f-tar"),
        ("target-rate", ["--f-tar", "0.5"], "--f-tar"),
        ("fidelity", ["--f-step", "0"], "--f-step"),
        ("yield", ["--f-step", "-0.01"], "--f-step"),
        ("ree", ["--f-min", "0.9", "--f-max", "0.8"], "--f-min"),
        ("fidelity", ["--f-max", "inf"], "finite"),
        ("yield", ["--n-min", "4", "--n-max", "3"], "--n-min"),
    ],
)
def test_cli_compare_rejects_bad_input(cache_dir, capsys, metric, flags, message):
    code = run_cli(["compare", "--metric", metric, "--cache", str(cache_dir), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err and captured.out == ""


def test_cli_compare_target_rate_matches_scalar(tmp_path, capsys, protocols_for):
    # the whole-grid target rate equals the scalar metric at every grid point
    from bicliff.cli import _dejmps_stats, _full_stats
    from bicliff.metrics import target_rate

    ns = (2, 3, 4, 5)
    for n in ns:
        write_werner_cache(tmp_path / f"werner_n{n}.bcp", n, protocols_for(n))
    full = {n: _full_stats(protocols_for(n)) for n in ns}
    dejmps = {n: _dejmps_stats(n) for n in ns}
    for f_tar in ("0.930025", "0.8"):
        code = run_cli([
            "compare", "--n-min", "2", "--n-max", "5", "--metric", "target-rate",
            "--cache", str(tmp_path), "--f-tar", f_tar, "--f-step", "0.0005",
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and lines[0] == "f_in,full,dejmps"
        for line in lines[1:]:
            f, a, b = map(float, line.split(","))
            assert a == target_rate(f, float(f_tar), full).value
            assert b == target_rate(f, float(f_tar), dejmps).value
