import concurrent.futures
import contextlib
import functools
import io
import json
import os
import re
import struct
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliff.cache import (
    load_transversal_cache,
    load_werner_cache,
    read_cache,
    verify_cache,
    write_transversal_cache,
    write_werner_cache,
)
from bicliff import transversal
from bicliff.circuits import CliffordCircuit, circuit_to_symplectic
from bicliff.cli import main
from bicliff.gf2 import swap_halves
from bicliff.states import werner_stats
from bicliff.transversal import build_transversal
from _reference import EXAMPLE_PAIR
import _scalar_reference as scalar


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


def _assert_eval_reads_no_cache(state, cache, capsys):
    """eval of `state` with the cache directory `cache` exits 0 and prints the
    bytes it prints with an empty one: it reads its state file alone."""
    capsys.readouterr()
    empty = cache / "empty"
    empty.mkdir(exist_ok=True)
    outputs = []
    for directory in (cache, empty):
        code = run_cli(["eval", str(state), "--cache", str(directory)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("coset_key,")


def test_cache_roundtrip(cache_dir, protocols_for):
    header, protocols = load_werner_cache(cache_dir / "werner_n3.bcp")
    assert header["n"] == 3 and header["count"] == 5
    original = protocols_for(3)
    assert len(protocols) == len(original)
    for a, b in zip(protocols, original):
        assert a.stats == b.stats
        assert a.rep == b.rep
        assert a.source == b.source


def test_werner_cache_roundtrip_keeps_histograms(tmp_path, protocols_for):
    for n in range(2, 8):
        original = protocols_for(n)
        write_werner_cache(tmp_path / f"werner_n{n}.bcp", n, original)
        _, loaded = load_werner_cache(tmp_path / f"werner_n{n}.bcp")
        assert len(loaded) == len(original)
        for a, b in zip(loaded, original):
            assert a.counts == b.counts and a.stats == b.stats
            assert a.rep == b.rep and a.source == b.source
            assert a.case_index == b.case_index
        # the histograms derived at load give the statistics of the stored
        # case's matrix
        assert loaded[-1].stats == werner_stats(loaded[-1].rep, n)


def _json_record_file(path, header, records, version=1):
    """A cache of JSON records, the layout before fixed-width records, byte by byte."""

    def encode(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()

    blob = encode({**header, "format_version": version})
    data = b"BCPC\x01" + struct.pack(">I", len(blob)) + blob
    for rec in records:
        raw = encode(rec)
        data += struct.pack(">I", len(raw)) + raw
    path.write_bytes(data)


def _v1_werner_records(protocols):
    """Werner records as version 1 stored them: statistics as 'num/den' strings."""

    def strings(poly):
        return [str(c) for c in poly.coeffs]

    return [
        {
            "case": [p.source.a, p.source.b, p.source.e],
            "index": p.case_index,
            "rows": list(p.rep.rows),
            "stats": {
                "p": strings(p.stats.p_suc),
                "f": strings(p.stats.f_num),
                "fis": [strings(q) for q in p.stats.fi_nums],
            },
        }
        for p in protocols
    ]


def test_format_1_werner_cache_rejected(tmp_path, protocols_for):
    path = tmp_path / "werner_n3.bcp"
    header = {"mode": "werner", "n": 3, "count": 5, "params": {"jobs_independent": True}}
    _json_record_file(path, header, _v1_werner_records(protocols_for(3)))
    for reader in (read_cache, load_werner_cache, verify_cache):
        with pytest.raises(ValueError, match="werner cache version 1"):
            reader(path)


def _v2_werner_records(protocols):
    """Werner records as version 2 stored them: one JSON object each."""
    return [
        {
            "case": [p.source.a, p.source.b, p.source.e],
            "index": p.case_index,
            "rows": list(p.rep.rows),
            "counts": [list(h) for h in p.counts],
        }
        for p in protocols
    ]


def test_format_2_werner_cache_rejected(tmp_path, capsys, protocols_for):
    # version 2 held one length-prefixed JSON record per protocol
    path = tmp_path / "werner_n3.bcp"
    header = {"mode": "werner", "n": 3, "count": 5}
    _json_record_file(path, header, _v2_werner_records(protocols_for(3)), version=2)
    for reader in (read_cache, load_werner_cache, verify_cache):
        with pytest.raises(ValueError, match="unsupported werner cache version 2"):
            reader(path)
    code = run_cli(["compare", "--n-min", "3", "--n-max", "3", "--cache", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: bad cache file {path}: unsupported werner cache version 2; "
        f"rebuild it with: bicliff werner --n 3 --cache {tmp_path}\n"
    )


def _v3_werner_file(path, n, protocols):
    """A Werner cache as version 3 stored it: fixed-width records that also
    held each protocol's case (a, b, E) and representative rows."""
    dtype = np.dtype([
        ("case", "<u4", (3,)), ("index", "<u4"), ("rows", "<u2", (2 * n,)), ("counts", "u1", (4, n + 1)),
    ])
    records = np.array(
        [((p.source.a, p.source.b, p.source.e), p.case_index, p.rep.rows, p.counts) for p in protocols],
        dtype,
    )
    header = {"mode": "werner", "n": n, "count": len(records), "format_version": 3}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(b"BCPC\x01" + struct.pack(">I", len(blob)) + blob + records.tobytes())


def test_format_3_werner_cache_rejected(tmp_path, protocols_for):
    path = tmp_path / "werner_n3.bcp"
    _v3_werner_file(path, 3, protocols_for(3))
    for reader in (read_cache, load_werner_cache, verify_cache):
        with pytest.raises(ValueError, match="unsupported werner cache version 3"):
            reader(path)


def _v4_werner_file(path, n, protocols):
    """A Werner cache as version 4 stored it: fixed-width records of the case
    index and the four preimage-coset histograms."""
    dtype = np.dtype([("index", "<u4"), ("counts", "u1", (4, n + 1))])
    records = np.array([(p.case_index, p.counts) for p in protocols], dtype)
    header = {"mode": "werner", "n": n, "count": len(records), "format_version": 4}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(b"BCPC\x01" + struct.pack(">I", len(blob)) + blob + records.tobytes())


def test_format_4_werner_cache_rejected(tmp_path, capsys, protocols_for):
    path = tmp_path / "werner_n3.bcp"
    _v4_werner_file(path, 3, protocols_for(3))
    bad = path.read_bytes()
    assert len(bad) == bad.index(b"}") + 1 + 5 * (4 + 4 * 4)
    for reader in (read_cache, load_werner_cache, verify_cache):
        with pytest.raises(ValueError, match="unsupported werner cache version 4"):
            reader(path)
    for args, rebuild in (
        (["compare", "--n-min", "3", "--n-max", "3", "--cache", str(tmp_path)],
         f"bicliff werner --n 3 --cache {tmp_path}"),
        (["verify", str(path)], "bicliff werner or bicliff transversal"),
    ):
        code = run_cli(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: bad cache file {path}: unsupported werner cache version 4; "
            f"rebuild it with: {rebuild}\n"
        )
    assert path.read_bytes() == bad  # no reader rewrites an old cache


@pytest.mark.parametrize("header", [
    pytest.param({"n": 3, "count": 5}, id="no mode or version"),
    pytest.param({"n": 3, "count": 5, "format_version": 5}, id="no mode"),
    pytest.param({"mode": "journal", "n": 3, "count": 5, "format_version": 5}, id="unknown mode"),
    pytest.param({"mode": ["werner"], "n": 3, "count": 5, "format_version": 5}, id="list mode"),
])
def test_cache_of_no_known_mode_rejected(cache_dir, tmp_path, capsys, header):
    # the sound n = 3 Werner body under a header that names no mode the
    # readers know: rejected with the field named, never read as a Werner body
    good = (cache_dir / "werner_n3.bcp").read_bytes()
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "werner_n3.bcp"
    path.write_bytes(b"BCPC\x01" + struct.pack(">I", len(blob)) + blob + good[-5 * 4 :])
    message = f"header field mode is {header.get('mode')!r}, not one of ['transversal', 'werner']"
    for reader in (read_cache, load_werner_cache, verify_cache):
        with pytest.raises(ValueError, match=re.escape(message)):
            reader(path)
    for args, rebuild in (
        (["compare", "--n-min", "3", "--n-max", "3", "--cache", str(tmp_path)],
         f"bicliff werner --n 3 --cache {tmp_path}"),
        (["verify", str(path)], "bicliff werner or bicliff transversal"),
    ):
        code = run_cli(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: bad cache file {path}: {message}; rebuild it with: {rebuild}\n"


@pytest.mark.parametrize("role", ["state", "header"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, role):
    # JSON nested past the recursion limit is a bad file, not a crash
    blob = b"[" * 200_000 + b"]" * 200_000
    path = tmp_path / "deep"
    if role == "state":
        path.write_bytes(blob)
        args, prefix = ["eval", str(path), "--cache", str(tmp_path)], f"error: bad state file {path}: "
    else:
        path.write_bytes(b"BCPC\x01" + struct.pack(">I", len(blob)) + blob)
        args, prefix = ["verify", str(path)], f"error: bad cache file {path}: "
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(prefix) and "recursion" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n, size", [(3, 81), (8, 7008)])
def test_werner_record_is_index_alone(tmp_path, protocols_for, n, size):
    # the case, the representative and the histograms follow from the index
    path = tmp_path / f"werner_n{n}.bcp"
    write_werner_cache(path, n, protocols_for(n))
    data = path.read_bytes()
    header, records = read_cache(path)
    assert header["format_version"] == 5 and records.dtype.names == ("index",)
    assert records.dtype.itemsize == 4 and len(data) == size
    assert data.endswith(records.tobytes()) and len(data) == data.index(b"}") + 1 + 4 * len(records)
    assert records["index"].tolist() == [p.case_index for p in protocols_for(n)]


def _v2_transversal_file(path, t):
    """A transversal cache as version 2 stored it: each record the key, then
    the 2n rows of the coset's canonical representative."""
    n = t.n
    header = {"mode": "transversal", "n": n, "count": len(t), "complete": t.complete,
              "seed": 0, "samples": t.samples_used, "format_version": 2}
    records = np.empty(len(t), [("key", "<u2", (n - 1,)), ("rows", "<u2", (2 * n,))])
    records["key"], records["rows"] = t.keys, transversal.representative_rows(t.keys, n)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(b"BCPC\x01" + struct.pack(">I", len(blob)) + blob + records.tobytes())


def _v3_transversal_file(path, t):
    """A transversal cache as version 3 stored it: each record the key, then
    the coset's shifts t1 and t2, rows n and 0 of its representative with
    their halves swapped."""
    n = t.n
    header = {"mode": "transversal", "n": n, "count": len(t), "complete": t.complete,
              "seed": 0, "samples": t.samples_used, "format_version": 3}
    records = np.empty(len(t), [("key", "<u2", (n - 1,)), ("shifts", "<u2", (2,))])
    rows = transversal.representative_rows(t.keys, n)
    records["key"], records["shifts"] = t.keys, swap_halves(rows[:, [n, 0]], n)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(b"BCPC\x01" + struct.pack(">I", len(blob)) + blob + records.tobytes())


def _v4_transversal_file(path, t):
    """A transversal cache as version 4 stored it: each record the key alone."""
    header = {"mode": "transversal", "n": t.n, "count": len(t), "complete": t.complete,
              "seed": 0, "samples": t.samples_used, "format_version": 4}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(b"BCPC\x01" + struct.pack(">I", len(blob)) + blob + t.keys.astype("<u2").tobytes())


def test_format_1_transversal_cache_rejected(tmp_path, capsys, transversal_for):
    # version 1 held one JSON record per coset, version 2 the key and the 2n
    # representative rows in one binary block, version 3 the key and the
    # two shifts, version 4 the key alone
    path = tmp_path / "transversal_n2.bcp"
    header = {"mode": "transversal", "n": 2, "count": 1, "complete": False,
              "seed": 0, "samples": 16}
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    for version in (1, 2, 3, 4):
        if version == 1:
            _json_record_file(path, header, [{"key": [1], "rows": [1, 2, 4, 8]}])
        else:
            (None, None, _v2_transversal_file, _v3_transversal_file,
             _v4_transversal_file)[version](path, transversal_for(2))
        bad = path.read_bytes()
        for reader in (read_cache, load_transversal_cache, verify_cache):
            with pytest.raises(ValueError, match=f"unsupported transversal cache version {version}"):
                reader(path)
        code = run_cli(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: bad cache file {path}: unsupported transversal cache version {version}; "
            "rebuild it with: bicliff werner or bicliff transversal\n"
        )
        _assert_eval_reads_no_cache(state, tmp_path, capsys)  # eval reads no cache
        assert path.read_bytes() == bad  # no reader rewrites a stale cache


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transversal_cache_format_2_roundtrip(tmp_path, transversal_for, n):
    # format 2 made the transversal one binary block and format 4 stored the
    # key alone in each record; format 5 is the header alone, and a reader
    # returns the positions of its cosets, whose keys are the enumeration
    t = transversal_for(n)
    path = tmp_path / f"transversal_n{n}.bcp"
    write_transversal_cache(path, t, seed=0)
    header, loaded = load_transversal_cache(path)
    assert header == {"mode": "transversal", "n": n, "count": len(t), "complete": True,
                      "seed": 0, "samples": t.samples_used, "format_version": 5}
    assert loaded == range(len(t))
    assert np.array_equal(transversal.enumerate_coset_keys(n), t.keys)
    data = path.read_bytes()
    assert len(data) == data.index(b"}") + 1
    assert n != 4 or len(data) == 112  # 68,962 bytes at format 4


@functools.cache
def _n5_oracle_keys() -> np.ndarray:
    """The 782,595 n = 5 keys of the independent oracle, as a cache held them."""
    return scalar.enumerated_coset_keys(5).astype(np.uint16)


def test_n5_transversal_cache_is_header_and_keys(tmp_path):
    # the 782,595 n = 5 keys with the sample count of the default seed-0
    # build: the file is the header alone, 115 bytes where format 4 took
    # 6,260,875, and a reader gives the range of its cosets back
    keys = _n5_oracle_keys()
    path = tmp_path / "transversal_n5.bcp"
    write_transversal_cache(path, transversal.Transversal(5, keys, 10_733_568), seed=0)
    data = path.read_bytes()
    assert len(data) == data.index(b"}") + 1 == 115
    header, loaded = load_transversal_cache(path)
    assert header["complete"] and loaded == range(len(keys))


@pytest.mark.parametrize("count", [0, 1])
def test_transversal_cache_of_nine_pairs_rejected(tmp_path, capsys, count):
    # keys stop at n = 5, and 2n = 18 bits would not even fit the uint16
    # masks; one record is laid out as n - 1 uint32 key masks would be
    path = tmp_path / "transversal_n9.bcp"
    header = {"mode": "transversal", "n": 9, "count": count, "complete": False,
              "seed": 0, "samples": count, "format_version": 5}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(b"BCPC\x01" + struct.pack(">I", len(blob)) + blob + bytes(count * 8 * 4))
    for reader in (read_cache, load_transversal_cache, verify_cache):
        with pytest.raises(ValueError, match="a transversal holds at most 5 pairs, not n=9"):
            reader(path)
    code = run_cli(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "at most 5 pairs" in captured.err and "rebuild it with" in captured.err


@pytest.mark.parametrize("n", [6, 7, 8])
def test_transversal_header_past_five_pairs_exits_2_unenumerated(tmp_path, capsys, monkeypatch, n):
    # a header-only file of n = 6..8 that is otherwise sound: the reader
    # must refuse it before anything enumerates the keys, whose n = 6 array
    # alone takes about 1 GB; eval reads no cache, so it never sees the file
    from bicliff.cache import write_cache
    from bicliff.orders import dn_index

    enumerate_coset_keys = transversal.enumerate_coset_keys

    def bounded(m):
        assert m <= 5, f"enumerated n={m}"
        return enumerate_coset_keys(m)

    monkeypatch.setattr(transversal, "enumerate_coset_keys", bounded)
    header = {"mode": "transversal", "n": n, "count": dn_index(n), "complete": True,
              "seed": 0, "samples": 0}
    write_cache(tmp_path / "transversal_n5.bcp", header)
    code = run_cli(["verify", str(tmp_path / "transversal_n5.bcp")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: bad cache file {tmp_path / 'transversal_n5.bcp'}: a transversal holds at "
        f"most 5 pairs, not n={n}; rebuild it with: bicliff werner or bicliff transversal\n"
    )
    # the same file under the name of an n = 2 state's cache, a cheaper eval than n = 5's
    write_cache(tmp_path / "transversal_n2.bcp", header)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    _assert_eval_reads_no_cache(state, tmp_path, capsys)


def test_cli_eval_rejects_partial_transversal_marked_complete(transversal_for, tmp_path, capsys):
    from bicliff.cache import write_cache

    path = tmp_path / "transversal_n3.bcp"
    write_transversal_cache(path, transversal_for(3), seed=0)
    header, keys = read_cache(path)
    assert header["complete"] and header["count"] == len(keys) == 315
    write_cache(path, {**header, "count": 100})
    for reader in (read_cache, load_transversal_cache, verify_cache):
        with pytest.raises(ValueError, match="complete=True for 100 of 315 cosets"):
            reader(path)
    # eval reads no cache, so the bad header changes nothing it prints
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 3, "pairs": [list(EXAMPLE_PAIR)] * 3}))
    _assert_eval_reads_no_cache(state, tmp_path, capsys)


def _corrupt_transversal(kind, good, path):
    """Write a transversal cache of the current format damaged in one way to `path`."""
    from bicliff.cache import write_cache

    data = good.read_bytes()
    header, _ = read_cache(good)
    if kind == "truncated header":
        path.write_bytes(data[:-1])
    elif kind == "trailing byte":
        path.write_bytes(data + b"\0")
    elif kind == "count mismatch":
        write_cache(path, {**header, "count": header["count"] + 1})
    elif kind == "marked incomplete":
        write_cache(path, {**header, "complete": False})
    elif kind == "no complete flag":
        header.pop("complete")
        write_cache(path, header)


TRANSVERSAL_DAMAGE = [
    ("truncated header", "file is truncated"),
    ("trailing byte", "transversal body of 1 bytes: the cache is its header alone"),
    ("count mismatch", "header says complete=True for 16 of 15 cosets"),
    ("marked incomplete", "header says complete=False for 15 of 15 cosets"),
    ("no complete flag", "header says complete=None for 15 of 15 cosets"),
]


@pytest.mark.parametrize("kind, message", TRANSVERSAL_DAMAGE, ids=[k for k, _ in TRANSVERSAL_DAMAGE])
def test_damaged_transversal_cache_exits_2(cache_dir, tmp_path, capsys, kind, message):
    path = tmp_path / "transversal_n2.bcp"
    _corrupt_transversal(kind, cache_dir / "transversal_n2.bcp", path)
    for reader in (read_cache, load_transversal_cache, verify_cache):
        with pytest.raises(ValueError, match=message):
            reader(path)
    code = run_cli(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: bad cache file {path}: ")
    assert message in captured.err and "; rebuild it with: bicliff " in captured.err
    # eval reads no cache, so the damage changes nothing it prints
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    _assert_eval_reads_no_cache(state, tmp_path, capsys)


def _torn_werner_cache(kind, cache_dir, path, protocols):
    """An n=4 Werner cache whose header count disagrees with its records."""
    from bicliff.cache import write_cache

    good = cache_dir / "werner_n4.bcp"
    if kind == "cut at record boundary":
        # the first 10 of 13 records: a header of the same length, so this
        # file is a prefix of the full one that ends after record 9
        write_werner_cache(path, 4, protocols[:10])
        head = path.read_bytes()
        assert good.read_bytes().startswith(head[: head.index(b'"count":1')])
        path.write_bytes(good.read_bytes()[: len(head)])
    else:
        header, records = read_cache(good)
        step = 1 if kind == "count too large" else -1
        write_cache(path, {**header, "count": header["count"] + step}, records)


@pytest.mark.parametrize("kind", ["cut at record boundary", "count too large", "count too small"])
def test_torn_werner_cache_exits_2(cache_dir, tmp_path, capsys, protocols_for, kind):
    path = tmp_path / "werner_n4.bcp"
    _torn_werner_cache(kind, cache_dir, path, protocols_for(4))
    for reader in (read_cache, load_werner_cache, verify_cache):
        with pytest.raises(ValueError, match="does not hold"):
            reader(path)
    for args, rebuild in (
        (["compare", "--n-min", "4", "--n-max", "4"], f"bicliff werner --n 4 --cache {tmp_path}"),
        (["circuit", "--n", "4", "--budget", "0"], f"bicliff werner --n 4 --cache {tmp_path}"),
        (["verify", str(path)], "bicliff werner or bicliff transversal"),
    ):
        cache_args = [] if args[0] == "verify" else ["--cache", str(tmp_path)]
        code = run_cli([*args, *cache_args])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: bad cache file {path}: ")
        assert captured.err.endswith(f"; rebuild it with: {rebuild}\n")


def test_cli_eval_n1_signed_zero_csv(tmp_path, capsys):
    # the CSV of this state as written before the array-backed eval: X and Y
    # tie at zero, and their order and signs must not change
    write_transversal_cache(tmp_path / "transversal_n1.bcp", build_transversal(1), seed=0)
    state = tmp_path / "state.json"
    state.write_text('{"n": 1, "pairs": [[0.7, -0.0, 0.0, 0.3]]}')
    assert run_cli(["eval", str(state), "--cache", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "coset_key,p_suc,f_out,f1,f2,f3,envelope\n"
        ",1,0.69999999999999996,0.29999999999999999,0,0,1\n"
    )


def test_cli_transversal_n1_zero_width_records(tmp_path, capsys):
    # the one n = 1 coset has an empty key; its cache, like every
    # transversal cache, is the header alone
    assert run_cli(["transversal", "--n", "1", "--cache", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "transversal_n1.bcp"
    data = path.read_bytes()
    assert len(data) == data.index(b"}") + 1
    header, cosets = read_cache(path)
    assert header["count"] == 1 and cosets == range(1)
    keys = transversal.enumerate_coset_keys(1)
    assert keys.dtype == np.uint16 and keys.shape == (1, 0)
    state = tmp_path / "state.json"
    state.write_text('{"n": 1, "pairs": [[0.5, 0.125, 0.25, 0.125]]}')
    assert run_cli(["eval", str(state), "--cache", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "coset_key,p_suc,f_out,f1,f2,f3,envelope\n,1,0.5,0.25,0.125,0.125,1\n"
    )
    assert run_cli(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "checked=1 ok=1 ok\n"


def test_load_rejects_repeated_statistics(cache_dir, tmp_path):
    # the n = 3 records hold cases 0, 1, 2, 3, 6; case 7 shares record 3's
    # statistics, so record 4 repeats them: the reader's checks pass, the load fails
    from bicliff.cache import write_cache

    header, records = read_cache(cache_dir / "werner_n3.bcp")
    header.pop("format_version")
    records = records.copy()
    assert records["index"].tolist() == [0, 1, 2, 3, 6]
    records["index"][4] = 7
    bad = tmp_path / "werner_n3.bcp"
    write_cache(bad, header, records)
    read_cache(bad)
    for reader in (load_werner_cache, verify_cache):
        with pytest.raises(ValueError, match="record 4: statistics of an earlier record"):
            reader(bad)


def test_transversal_cache_roundtrip(cache_dir, transversal_for):
    header, cosets = load_transversal_cache(cache_dir / "transversal_n2.bcp")
    t = transversal_for(2)
    assert header["complete"] and header["samples"] == t.samples_used
    assert cosets == range(len(t))


def test_verify_cache_ok(cache_dir, monkeypatch):
    # each verify reads the file once: the Werner protocols are derived from
    # the records already read
    reads = []
    monkeypatch.setattr("bicliff.cache.read_cache", lambda path: reads.append(path) or read_cache(path))
    ok, checked, message = verify_cache(cache_dir / "werner_n3.bcp")
    assert ok and checked == 5 and message == "ok"
    ok, checked, _ = verify_cache(cache_dir / "transversal_n2.bcp")
    assert ok and checked == 15  # every coset of the header
    assert reads == [cache_dir / "werner_n3.bcp", cache_dir / "transversal_n2.bcp"]


def test_eval_enumerates_once_and_verify_never(cache_dir, tmp_path, capsys, monkeypatch):
    # eval enumerates the keys once, whether or not a transversal cache is
    # in its directory, which it never reads; verify of a transversal cache
    # reads its header alone
    calls = []
    enumerate_coset_keys = transversal.enumerate_coset_keys
    monkeypatch.setattr(transversal, "enumerate_coset_keys",
                        lambda n: calls.append(n) or enumerate_coset_keys(n))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    outputs = []
    for cache in (cache_dir, tmp_path / "empty"):
        assert run_cli(["eval", str(state), "--cache", str(cache)]) == 0
        outputs.append(capsys.readouterr().out)
        assert calls == [2]
        calls.clear()
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 16
    assert not (tmp_path / "empty").exists()
    assert run_cli(["verify", str(cache_dir / "transversal_n2.bcp")]) == 0
    assert capsys.readouterr().out == "checked=15 ok=1 ok\n"
    assert calls == []


@pytest.mark.parametrize("sample, result", [
    (100, (False, 3, "record 3: case index 5, not 3")),
    (3, (False, 3, "record 3: case index 5, not 3")),
])
def test_verify_werner_cache_reports_first_bad_record(cache_dir, tmp_path, capsys, sample, result,
                                                      protocols_for):
    # the n = 3 records hold cases 0, 1, 2, 3, 6 of 10; record 3 names case 5,
    # a later case of its own class, so the cache loads the sound statistics
    # and only the fresh enumeration tells the index is not the first.
    # verify compares every record, so `--sample` changes nothing it prints
    from bicliff.cache import write_cache

    def verify_line():
        assert run_cli(["verify", str(bad), "--sample", str(sample)]) == 2
        return capsys.readouterr().out

    header, records = read_cache(cache_dir / "werner_n3.bcp")
    header.pop("format_version")
    records = records.copy()
    assert records["index"].tolist() == [0, 1, 2, 3, 6]
    records["index"][3] = 5
    bad = tmp_path / "werner_n3.bcp"
    write_cache(bad, header, records)
    assert [p.counts for p in load_werner_cache(bad)[1]] == [p.counts for p in protocols_for(3)]
    assert verify_cache(bad) == result
    assert verify_line() == "checked=3 ok=0 record 3: case index 5, not 3\n"
    # record 2 names case 4, a later case of its class, and goes wrong first
    records["index"][2] = 4
    write_cache(bad, header, records)
    assert verify_cache(bad) == (False, 2, "record 2: case index 4, not 2")
    assert verify_line() == "checked=2 ok=0 record 2: case index 4, not 2\n"


# the n = 4 records hold cases 0, 1, 2, 4, 5, 6, 7, 12, 17, 21, 28, 34, 35 of 60
@pytest.mark.parametrize("record, index, result", [
    # case 3 shares case 2's statistics, so record 3 repeats record 2's
    (3, 3, ValueError("record 3: statistics of an earlier record")),
    (7, 16, ValueError("record 7: statistics of an earlier record")),  # case 16 shares case 4's
    # case 39 shares record 12's own statistics: it loads, but is not the first case
    (12, 39, (False, 12, "record 12: case index 39, not 35")),
])
def test_verify_werner_cache_checks_index(cache_dir, tmp_path, record, index, result):
    # the load derives each record's statistics from its case index, and
    # verify compares the indices with a fresh enumeration
    from bicliff.cache import write_cache

    header, records = read_cache(cache_dir / "werner_n4.bcp")
    header.pop("format_version")
    assert verify_cache(cache_dir / "werner_n4.bcp") == (True, 13, "ok")
    records = records.copy()
    records["index"][record] = index
    bad = tmp_path / "werner_n4.bcp"
    write_cache(bad, header, records)
    if isinstance(result, ValueError):
        for reader in (load_werner_cache, verify_cache):
            with pytest.raises(ValueError, match=str(result)):
                reader(bad)
    else:
        assert verify_cache(bad) == result


def test_verify_werner_cache_checks_record_count(cache_dir, tmp_path, capsys, protocols_for):
    # the first 10 of the 13 n = 4 protocols: every record is sound and loads
    path = tmp_path / "werner_n4.bcp"
    write_werner_cache(path, 4, protocols_for(4)[:10])
    assert len(load_werner_cache(path)[1]) == 10
    problem = "10 records, not the 13 protocols of n=4"
    assert verify_cache(path) == (False, 0, problem)
    assert run_cli(["verify", str(path)]) == 2
    assert capsys.readouterr().out == f"checked=0 ok=0 {problem}\n"


@pytest.mark.parametrize("n, record, index, first", [(7, 3, 5, 4), (6, 16, 41, 40)])
def test_verify_compares_every_record(tmp_path, capsys, protocols_for, n, record, index, first):
    # one record names the next case of its own class, which the scalar
    # oracle's histograms pick: the cache loads, and only a comparison of
    # every record with a fresh enumeration finds it
    from bicliff.cache import WERNER_RECORD, write_cache

    good = np.array([p.case_index for p in protocols_for(n)], WERNER_RECORD)
    cases = list(scalar.enumerate_cases(n))

    def counts(i):
        return scalar.werner_counts(scalar.representative(cases[i]))

    assert good["index"][record] == first
    later = range(first + 1, good["index"][record + 1])
    assert next(i for i in later if counts(i) == counts(first)) == index
    bad = good.copy()
    bad["index"][record] = index
    header = {"mode": "werner", "n": n, "count": len(good)}
    for records, line, code in (
        (good, f"checked={len(good)} ok=1 ok\n", 0),
        (bad, f"checked={record} ok=0 record {record}: case index {index}, not {first}\n", 2),
    ):
        path = tmp_path / f"werner_n{n}.bcp"
        write_cache(path, header, records)
        for flags in ([], ["--sample", "1"]):  # the flag changes nothing
            assert run_cli(["verify", str(path), *flags]) == code
            assert capsys.readouterr() == (line, "")


@pytest.mark.parametrize("n", [3, 4])
def test_werner_bit_flips_fail_load_or_verify(cache_dir, tmp_path, capsys, protocols_for, n):
    # a complete cache holds each class once, so a flipped index bit breaks
    # the index order or range, repeats an earlier record's statistics, or
    # names a later case of the record's own class, which verify rejects
    good = cache_dir / f"werner_n{n}.bcp"
    data = good.read_bytes()
    count = len(protocols_for(n))
    counts = [p.counts for p in protocols_for(n)]
    path = tmp_path / good.name
    args = ["compare", "--n-min", str(n), "--n-max", str(n), "--cache", str(tmp_path)]
    loaded = 0
    for bit in range(count * 32):
        flipped = bytearray(data)
        flipped[len(data) - 4 * count + bit // 8] ^= 1 << bit % 8
        path.write_bytes(flipped)
        try:
            protocols = load_werner_cache(path)[1]
        except ValueError:
            assert run_cli(args) == 2, bit
            captured = capsys.readouterr()
            assert captured.out == "", bit
            assert captured.err.endswith(f"; rebuild it with: bicliff werner --n {n} --cache {tmp_path}\n")
            continue
        loaded += 1
        assert [p.counts for p in protocols] == counts, bit
        ok, _, message = verify_cache(path)
        assert not ok and "case index" in message, bit
    assert loaded == {3: 0, 4: 2}[n]


@pytest.mark.parametrize("record, index, message", [
    (3, 2, "record 3: case index not above the one before"),
    (3, 1, "record 3: case index not above the one before"),
    (12, 60, "record 12: case index not below 60"),
    (12, 2**32 - 1, "record 12: case index not below 60"),
], ids=["repeated", "descending", "past every case", "largest u4"])
def test_werner_cache_rejects_bad_case_index(cache_dir, tmp_path, record, index, message):
    from bicliff.cache import write_cache

    header, records = read_cache(cache_dir / "werner_n4.bcp")
    header.pop("format_version")
    records = records.copy()
    records["index"][record] = index
    bad = tmp_path / "werner_n4.bcp"
    write_cache(bad, header, records)
    for reader in (read_cache, load_werner_cache, verify_cache):
        with pytest.raises(ValueError, match=message):
            reader(bad)


def test_cli_verify_werner_other_case_index_exits_2(cache_dir, tmp_path, capsys):
    # record 3 names case 5, a later case of its own class: the cache loads,
    # and verify reports the index
    from bicliff.cache import write_cache

    header, records = read_cache(cache_dir / "werner_n3.bcp")
    header.pop("format_version")
    records = records.copy()
    records["index"][3] = 5
    bad = tmp_path / "werner_n3.bcp"
    write_cache(bad, header, records)
    code = run_cli(["verify", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out == "checked=3 ok=0 record 3: case index 5, not 3\n"
    # record 4 names case 7, which has record 3's statistics: the cache does not load
    records["index"][3], records["index"][4] = 3, 7
    write_cache(bad, header, records)
    code = run_cli(["verify", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: bad cache file {bad}: record 4: statistics of an earlier record; "
        "rebuild it with: bicliff werner or bicliff transversal\n"
    )


def test_write_cache_is_atomic(cache_dir, tmp_path):
    from bicliff.cache import write_cache

    path = tmp_path / "werner_n3.bcp"
    path.write_bytes((cache_dir / "werner_n3.bcp").read_bytes())
    before = path.read_bytes()
    header, records = read_cache(path)

    class Interrupted(np.ndarray):
        """Records whose bytes fail to arrive after the header is written."""

        def tofile(self, fh, *args, **kwargs):
            assert fh.tell() > len(b"BCPC\x01") + 4  # magic, length and header are out
            raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_cache(path, header, records.view(Interrupted))
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


@pytest.mark.parametrize("change", [-9, -1, 1, 9])
def test_body_of_wrong_length_names_its_bytes(cache_dir, tmp_path, change):
    # a body short or long by a few bytes: the message gives its true length
    good = cache_dir / "werner_n3.bcp"
    header, records = read_cache(good)
    data = good.read_bytes()
    path = tmp_path / "werner_n3.bcp"
    path.write_bytes(data[:change] if change < 0 else data + bytes(change))
    message = (f"werner body of {records.nbytes + change} bytes does not hold "
               f"{header['count']} records of {records.itemsize} bytes")
    with pytest.raises(ValueError, match=message):
        read_cache(path)


def test_reading_a_cache_holds_one_copy_of_its_body(tmp_path):
    import tracemalloc

    from bicliff.cache import WERNER_RECORD, write_cache

    # a Werner body of 2^20 ascending case indices, which the reader's checks
    # pass (a transversal cache has no body): 4 MB
    path = tmp_path / "werner_n8.bcp"
    write_cache(path, {"mode": "werner", "n": 8, "count": 1 << 20},
                np.arange(1 << 20).astype(WERNER_RECORD))
    read_cache(path)  # the reader's imports are not part of the body
    tracemalloc.start()
    try:
        _, records = read_cache(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records.nbytes == (1 << 20) * 4
    assert peak < 1.5 * records.nbytes, peak


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


def test_cli_tables_rejects_reversed_range(capsys):
    code = run_cli(["tables", "--n-min", "3", "--n-max", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--n-min 3 must not exceed --n-max 2" in captured.err


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


def test_cli_werner_ignores_leftover_chunk_files(tmp_path, capsys, monkeypatch):
    # Older versions kept resumable key chunks in <cache>.journal/ and reused
    # a chunk by its file name.  A leftover chunk with wrong keys must not
    # reach the result, and a run must leave nothing but the cache file.
    from bicliff import cache as cachemod
    from bicliff.werner import all_case_keys, graphs_up_to_iso

    clean = tmp_path / "clean"
    clean.mkdir()
    listed = []
    write = cachemod.write_werner_cache

    def listing_write(path, *args):
        listed.append(sorted(p.name for p in clean.iterdir()))
        write(path, *args)

    monkeypatch.setattr(cachemod, "write_werner_cache", listing_write)
    assert run_cli(["werner", "--n", "7", "--cache", str(clean)]) == 0
    expected = capsys.readouterr().out
    assert expected.splitlines()[1].split(",")[2] == "379"
    assert listed == [[]]  # no journal or temp file while the run went on
    assert sorted(p.name for p in clean.iterdir()) == ["werner_n7.bcp"]

    stale = tmp_path / "stale"
    journal = stale / "werner_n7.bcp.journal"
    journal.mkdir(parents=True)
    chunk = all_case_keys(7)[: 64 * len(graphs_up_to_iso(6))]
    chunk[:, 1:] = chunk[:, :0:-1]  # the X, Y and Z keys in descending order
    np.save(journal / "chunk_k1_n7_p64_000000.npy", chunk)
    assert run_cli(["werner", "--n", "7", "--cache", str(stale)]) == 0
    assert capsys.readouterr().out == expected
    assert (stale / "werner_n7.bcp").read_bytes() == (clean / "werner_n7.bcp").read_bytes()


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


def test_cli_eval_rows_without_success_read_zero(cache_dir, tmp_path, capsys):
    # entries of -1e-13 give rows whose p_suc is 0 or below while a coset
    # sum is not 0; their F_out and F_i still read 0
    from bicliff.states import BellDiagonalState
    from bicliff.transversal import enumerate_stats

    probs = [0.0] * 16
    probs[8], probs[9], probs[13] = 1e-13, -1e-13, 1.0
    _, p, f_num, fi_nums = enumerate_stats(BellDiagonalState(2, probs))
    dead = ~(p > 0)
    assert (f_num[dead] != 0).any() and (fi_nums[dead] != 0).any()
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "probs": probs}))
    assert run_cli(["eval", str(state), "--cache", str(cache_dir)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == len(p)
    for row, *sums in zip(rows, p, f_num, *fi_nums.T):
        if sums[0] > 0:
            assert list(map(float, row[2:6])) == [x / sums[0] for x in sums[1:]]
        else:
            assert row[2:6] == ["0"] * 4


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


@pytest.mark.parametrize("args, builds, expected_code", [
    *(pytest.param(["eval", f"n{n}.json"], [["transversal", "--n", str(n)]], 0, id=f"eval n={n}")
      for n in (1, 2, 3, 4)),  # eval enumerates the keys: it writes no cache
    pytest.param(["compare", "--n-min", "2", "--n-max", "5"],
                 [["werner", "--n", str(n)] for n in range(2, 6)], 0, id="compare"),
    pytest.param(["circuit", "--n", "4", "--budget", "0"], [["werner", "--n", "4"]], 4,
                 id="circuit fallback"),
])
def test_cli_reader_builds_missing_cache(tmp_path, capsys, monkeypatch, args, builds,
                                         expected_code):
    # a reader run in an empty cache directory prints what it prints after the
    # build commands; compare and circuit leave the Werner cache files they
    # write, byte for byte, and eval leaves none
    monkeypatch.chdir(tmp_path)
    for n in (1, 2, 3, 4):
        Path(f"n{n}.json").write_text(json.dumps({"n": n, "pairs": [list(EXAMPLE_PAIR)] * n}))
    for build in builds:
        assert run_cli([*build, "--cache", "built"]) == 0
    capsys.readouterr()
    assert run_cli([*args, "--cache", "built"]) == expected_code
    expected = capsys.readouterr()

    Path("fresh").mkdir()
    assert run_cli([*args, "--cache", "fresh"]) == expected_code
    captured = capsys.readouterr()
    assert captured.out == expected.out
    written = [f"{mode}_n{n}.bcp" for mode, _, n in builds if mode == "werner"]
    assert captured.err == expected.err + "".join(
        f"building missing cache {Path('fresh', name)}\n" for name in written
    )
    assert sorted(path.name for path in Path("fresh").iterdir()) == sorted(written)
    for name in written:
        assert Path("fresh", name).read_bytes() == Path("built", name).read_bytes()


def test_cli_eval_bad_state_builds_no_cache(tmp_path, capsys):
    # the state is read in full before the cache is looked up or built
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 3, "pairs": [list(EXAMPLE_PAIR)] * 2 + [[0.7, 0.2, 0.1]]}))
    cache = tmp_path / "cache"
    cache.mkdir()
    code = run_cli(["eval", str(state), "--cache", str(cache)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: bad state file {state}: ")
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("text", [
    '{"n": 0, "pairs": []}',
    '{"n": true, "pairs": [[0.7, 0.1, 0.1, 0.1]]}',
    '{"n": 2.0, "pairs": [[0.7, 0.1, 0.1, 0.1], [0.7, 0.1, 0.1, 0.1]]}',
    '{"n": 17, "pairs": []}',
    '{"n": -1, "probs": []}',
    json.dumps({"n": 6, "pairs": [list(EXAMPLE_PAIR)] * 6}),
])
def test_cli_eval_rejects_bad_pair_count(tmp_path, capsys, text):
    # only n = 1..5 transversals can be built, so larger states exit 2, not 3
    state = tmp_path / "state.json"
    state.write_text(text)
    code = run_cli(["eval", str(state), "--cache", str(tmp_path / "c")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"bad state file {state}: n=" in captured.err
    assert "must be an integer in 1..5" in captured.err
    assert not (tmp_path / "c").exists()


def test_cli_eval_bad_state(cache_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 2}")
    assert run_cli(["eval", str(bad), "--cache", str(cache_dir)]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "-0.1"])
def test_cli_eval_rejects_bad_min_fidelity(cache_dir, tmp_path, capsys, value):
    # NaN would keep every row and a value above 1 would keep none
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    code = run_cli(["eval", str(state), "--cache", str(cache_dir), f"--min-fidelity={value}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--min-fidelity {float(value)}" in captured.err
    assert "0 <= --min-fidelity <= 1" in captured.err


@pytest.mark.parametrize("value, rows", [("0", 15), ("1", 0), ("0.75", 3)])
def test_cli_eval_min_fidelity_bounds(cache_dir, tmp_path, capsys, value, rows):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    code = run_cli(["eval", str(state), "--cache", str(cache_dir), "--min-fidelity", value])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(lines) == 1 + rows
    assert all(float(line.split(",")[2]) >= float(value) for line in lines[1:])


@pytest.fixture(scope="module")
def small_transversal_caches(tmp_path_factory, transversal_for):
    d = tmp_path_factory.mktemp("small_transversals")
    for n in (1, 2):
        write_transversal_cache(d / f"transversal_n{n}.bcp", transversal_for(n), seed=0)
    return d


def _eval_state(cache, state_text):
    """(exit code, stdout, stderr) of `eval` on a state file holding state_text."""
    state = cache / "state.json"
    state.unlink(missing_ok=True)  # much cheaper than truncating on some file systems
    state.write_text(state_text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["eval", str(state), "--cache", str(cache)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text", [
    pytest.param('{"n": 1, "probs": [1%s, 0, 0, 0]}' % ("0" * 400), id="huge int probs"),
    pytest.param('{"n": 1, "pairs": [[1%s, 0, 0, 0]]}' % ("0" * 400), id="huge int pairs"),
    pytest.param('{"n": 1, "probs": ["0.25", "0.25", "0.25", "0.25"]}', id="string probs"),
    pytest.param('{"n": 1, "pairs": [["0.25", "0.25", "0.25", "0.25"]]}', id="string pairs"),
    pytest.param('{"n": 1, "probs": [true, false, false, false]}', id="bool probs"),
    pytest.param('{"n": 2, "pairs": [[true, false, false, false], [1, 0, 0, 0]]}',
                 id="bool pairs"),
])
def test_cli_eval_rejects_non_numeric_probabilities(small_transversal_caches, text):
    code, out, err = _eval_state(small_transversal_caches, text)
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad state file {small_transversal_caches / 'state.json'}: ")


def _malformed_entries():
    """JSON values that cannot replace one entry of a valid state with entries in (0, 1)."""
    return st.one_of(
        st.text(max_size=8),
        st.booleans(),
        st.none(),
        st.integers(min_value=2) | st.integers(max_value=-1),
        st.integers(min_value=10**308, max_value=10**500),
        st.floats(min_value=2) | st.floats(max_value=-1e-6),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.lists(st.floats(0, 1), max_size=4),
        st.dictionaries(st.text(max_size=3), st.integers(0, 1), max_size=2),
    )


@settings(max_examples=150, deadline=None)
@given(form=st.sampled_from(["probs", "pairs", "whole"]), index=st.integers(0, 15),
       value=_malformed_entries())
def test_cli_eval_fuzzed_state_files_exit_2(small_transversal_caches, form, index, value):
    # one entry of a valid two-pair state is replaced by a malformed value
    pair = [0.7, 0.1, 0.1, 0.1]
    if form == "probs":
        probs = [a * b for a in pair for b in pair]
        probs[index] = value
        obj = {"n": 2, "probs": probs}
    elif form == "pairs":
        pairs = [list(pair), list(pair)]
        pairs[index // 8][index % 4] = value
        obj = {"n": 2, "pairs": pairs}
    else:
        obj = {"n": 2, ("probs", "pairs")[index % 2]: value}
    code, out, err = _eval_state(small_transversal_caches, json.dumps(obj))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad state file ") and err.count("\n") == 1


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


@pytest.fixture(scope="module")
def cache_2to5(tmp_path_factory, protocols_for):
    d = tmp_path_factory.mktemp("cache_2to5")
    for n in range(2, 6):
        write_werner_cache(d / f"werner_n{n}.bcp", n, protocols_for(n))
    return d


def _scalar_families(protocols_for, ns):
    """(label, polynomial-mode DistStats) lists of the full and DEJMPS families."""
    from bicliff.dejmps import candidate_rows
    from bicliff.states import DistStats

    full = {n: [(p.case_index, p.stats) for p in protocols_for(n)] for n in ns}
    dejmps = {
        n: [(f"plan{i}", DistStats.from_rows(rows, n)) for i, rows in enumerate(candidate_rows(n))]
        for n in ns
    }
    return full, dejmps


GRID_FLAGS = ["--f-min", "0.55", "--f-max", "0.95", "--f-step", "0.05"]


def test_cli_compare_ree_matches_scalar(cache_2to5, capsys, protocols_for):
    from bicliff.metrics import ree_product

    ns = range(2, 6)
    full, dejmps = _scalar_families(protocols_for, ns)
    code = run_cli([
        "compare", "--n-min", "2", "--n-max", "5", "--metric", "ree",
        "--cache", str(cache_2to5), *GRID_FLAGS,
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(lines) == 1 + 9 * len(ns)
    for line in lines[1:]:
        f, n, a, b, _ = line.split(",")
        f, n = float(f), int(n)
        for column, family in ((a, full), (b, dejmps)):
            scalar = max(ree_product(st.evaluate(f)) for _, st in family[n])
            assert abs(float(column) - scalar) < 1e-12


def test_cli_compare_yield_matches_scalar(cache_2to5, capsys, protocols_for):
    from bicliff.metrics import hashing_yield

    full, dejmps = _scalar_families(protocols_for, range(2, 6))
    for n_max in range(2, 6):
        ns = range(2, n_max + 1)
        code = run_cli([
            "compare", "--n-min", "2", "--n-max", str(n_max), "--metric", "yield",
            "--cache", str(cache_2to5), *GRID_FLAGS,
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and len(lines) == 1 + 9
        for line in lines[1:]:
            f, a, b, _ = line.split(",")
            f = float(f)
            for column, family in ((a, full), (b, dejmps)):
                scalar = max(
                    hashing_yield(st.evaluate(f), n) for n in ns for _, st in family[n]
                )
                assert abs(float(column) - scalar) < 1e-12


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


def test_cli_compare_svg_one_point_grid(cache_dir, tmp_path, capsys):
    # one grid point spans no x range; it is drawn at the left edge
    svg = tmp_path / "plot.svg"
    code = run_cli([
        "compare", "--n-min", "2", "--n-max", "2", "--cache", str(cache_dir),
        "--f-min", "0.9", "--f-max", "0.9", "--svg", str(svg),
    ])
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 2
    text = svg.read_text()
    assert "nan" not in text and 'points="60.00,' in text


def test_cli_circuit(cache_dir, tmp_path, capsys):
    out = tmp_path / "circ.json"
    code = run_cli([
        "circuit", "--n", "2", "--cache", str(cache_dir),
        "--budget", "20000", "--seed", "1",
        "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert code == 0
    assert "two_qubit_gates=1" in printed
    gates = json.loads(out.read_text())
    assert any(g["gate"] == "CNOT" for g in gates)


def test_cli_circuit_benchmark_call_seeds(tmp_path, capsys, protocols_for, best_for):
    # the benchmark runs `circuit --n 6 --budget 100000 --seed S` and reads only
    # the statistics of the printed circuit; a fallback (exit 4) would fail it
    write_werner_cache(tmp_path / "werner_n6.bcp", 6, protocols_for(6))
    for seed in range(10):
        code = run_cli(["circuit", "--n", "6", "--budget", "100000", "--seed", str(seed),
                        "--cache", str(tmp_path)])
        printed = capsys.readouterr().out
        assert code == 0 and "# synthesized in" in printed, seed
        circ = CliffordCircuit.from_json_obj(6, json.loads(printed.splitlines()[-1]))
        assert werner_stats(circuit_to_symplectic(circ), 6) == best_for(6).protocol.stats, seed


def test_cli_verify(cache_dir, capsys):
    assert run_cli(["verify", str(cache_dir / "werner_n2.bcp")]) == 0
    assert "ok=1" in capsys.readouterr().out


def _documented_exit_codes(text: str) -> dict:
    """{code: meaning} of the first "exit codes are 0 success, 2 ..." list in text."""
    listed = re.search(r"exit codes(?: are|:)\s+([^.(]*)", text, re.IGNORECASE).group(1)
    return {int(code): meaning for code, meaning in re.findall(r"(\d+) (\w[\w ]*\w)", listed)}


def test_documented_exit_codes_match_cli_constants():
    from bicliff import cli

    constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = _documented_exit_codes(" ".join(readme.split()))
    assert set(documented) == constants
    assert _documented_exit_codes(" ".join(cli.__doc__.split())) == documented


def test_cli_transversal_and_budget(tmp_path, capsys, monkeypatch):
    code = run_cli([
        "transversal", "--n", "2", "--cache", str(tmp_path), "--seed", "0",
    ])
    assert code == 0
    capsys.readouterr()
    # the default budget completes every n the command allows; a 16-sample
    # build stands in for one that runs out
    monkeypatch.setattr("bicliff.cli.build_transversal",
                        functools.partial(build_transversal, max_samples=16))
    code = run_cli([
        "transversal", "--n", "3", "--cache", str(tmp_path),
    ])
    assert code == 4  # budget exhausted -> incomplete transversal
    assert "warning: transversal incomplete (" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["transversal_n2.bcp"]  # none for n = 3


def test_cli_transversal_keys_unlike_the_enumeration_exit_2(tmp_path, capsys, monkeypatch):
    # an enumeration one key short: the sampler checks every sampled key
    # against it and names the first sample of the missing coset
    enumerate_coset_keys = transversal.enumerate_coset_keys
    monkeypatch.setattr(transversal, "enumerate_coset_keys",
                        lambda n: np.delete(enumerate_coset_keys(n), 100, axis=0))
    stray = enumerate_coset_keys(3)[100].tolist()
    for jobs in (1, 2):
        with pytest.raises(ValueError, match=re.escape(f"sampled key {stray} is not an enumerated")):
            build_transversal(3, seed=0, jobs=jobs)
    assert run_cli(["transversal", "--n", "3", "--cache", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: internal error: sampled key {stray} is not an enumerated coset key\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_n5_statistics_of_enumerated_and_cached_keys_agree():
    # in process, on the statistics alone: the keys eval enumerates against
    # the keys a format-4 cache held, which the independent oracle lists;
    # the README pair (0.7, 0.15, 0.10, 0.05) on all five pairs
    from bicliff.states import BellDiagonalState
    from bicliff.transversal import _coset_stats, enumerate_stats

    state = BellDiagonalState.from_pairs([(0.7, 0.15, 0.10, 0.05)] * 5)
    keys, *enumerated = enumerate_stats(state)
    assert np.array_equal(keys, _n5_oracle_keys())
    for a, b in zip(_coset_stats(_n5_oracle_keys(), state), enumerated):
        assert a.tobytes() == b.tobytes()


def test_cli_entry_point_subprocess(tmp_path):
    # the installed console script behaves like main()
    res = subprocess.run(
        [sys.executable, "-m", "bicliff.cli", "tables", "--n-min", "2", "--n-max", "2"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stdout.splitlines()[1] == "2,720,48,15"


# bicliff.gf2 loads numpy: the package sets the thread count before any of its modules loads
_THREADS = "import os, bicliff.gf2; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_limits_blas_threads(preset):
    # OpenBLAS would start a spinning thread; a value set beforehand is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    res = subprocess.run([sys.executable, "-c", _THREADS], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    threads, value = res.stdout.split()
    assert value == (preset or "1")
    if preset is None:
        assert threads == "1"


_TOP_MODULES = "import sys; print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))"


def test_cli_imports_numpy_alone(tmp_path):
    # numpy is the only runtime dependency, and the CLI front end loads none:
    # a command that computes adds numpy alone.  numpy.ma costs import time
    # and comes with np.unique, which the package therefore avoids at import
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    werner = (f"from bicliff.cli import main; main(['werner', '--n', '3', '--cache', {str(tmp_path)!r}, "
              f"'--out', {str(tmp_path / 'out.csv')!r}]); ")
    bare, cli, run = (
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        for code in (_TOP_MODULES, "import bicliff.cli; " + _TOP_MODULES,
                     werner + _TOP_MODULES + "; print('numpy.ma' in sys.modules)")
    )

    def added(loaded):
        added = set(loaded) - set(bare.stdout.split()) - set(sys.stdlib_module_names)
        return {name for name in added if not name.startswith("__")}

    *loaded, has_ma = run.stdout.split()
    assert added(cli.stdout.split()) == {"bicliff"}
    assert added(loaded) == {"bicliff", "numpy"}
    assert has_ma == "False"


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
        ("fidelity", ["--n-min", "2", "--n-max", "3", "--f-min", "-3", "--f-max", "-2.9",
                      "--f-step", "0.05"], "0 <= --f-min"),
        ("ree", ["--f-min", "0.9", "--f-max", "1.5"], "--f-max <= 1"),
        ("fidelity", ["--f-step", "1e-300"], "--f-step"),
    ],
)
def test_cli_compare_rejects_bad_input(cache_dir, capsys, metric, flags, message):
    code = run_cli(["compare", "--metric", metric, "--cache", str(cache_dir), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("metric", ["fidelity", "yield", "ree", "target-rate"])
def test_cli_compare_grid_stops_at_f_max(cache_dir, capsys, metric):
    # the next point, 0.95 + 2 * 0.03 = 1.01, is within half a step of --f-max
    code = run_cli([
        "compare", "--n-min", "2", "--n-max", "2", "--metric", metric,
        "--cache", str(cache_dir), "--f-min", "0.95", "--f-max", "1", "--f-step", "0.03",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.95, 0.98]


def test_cli_compare_target_rate_matches_scalar(cache_2to5, capsys, protocols_for):
    # the whole-grid target rate equals the scalar metric at every grid point
    from bicliff.metrics import target_rate

    full, dejmps = _scalar_families(protocols_for, (2, 3, 4, 5))
    for f_tar in ("0.930025", "0.8"):
        code = run_cli([
            "compare", "--n-min", "2", "--n-max", "5", "--metric", "target-rate",
            "--cache", str(cache_2to5), "--f-tar", f_tar, "--f-step", "0.0005",
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and lines[0] == "f_in,full,dejmps"
        for line in lines[1:]:
            f, a, b = map(float, line.split(","))
            assert a == target_rate(f, float(f_tar), full).value
            assert b == target_rate(f, float(f_tar), dejmps).value


def _bad_cache(kind, good, path, protocols):
    """Write an unreadable variant of the cache file `good` to `path`."""
    from bicliff.cache import write_cache

    data = good.read_bytes()
    if kind == "foreign":
        path.write_bytes(b"nonsense")
    elif kind == "truncated":
        path.write_bytes(data[: len(data) // 2])
    elif kind == "old version":
        header, _ = read_cache(good)
        header.pop("format_version")
        _json_record_file(path, header, _v1_werner_records(protocols))
    elif kind == "format 2":
        header, _ = read_cache(good)
        header.pop("format_version")
        _json_record_file(path, header, _v2_werner_records(protocols), version=2)
    elif kind == "format 3":
        _v3_werner_file(path, 3, protocols)
    elif kind == "empty":  # well formed, but every n = 2..8 has at least 2 protocols
        write_werner_cache(path, 3, [])
    elif kind in ("duplicate statistics", "unsorted index", "index past every case"):
        header, records = read_cache(good)
        records = records.copy()
        if kind == "duplicate statistics":  # case 7 shares record 3's case 3's statistics
            records["index"][4] = 7
        elif kind == "unsorted index":
            records["index"][[1, 2]] = records["index"][[2, 1]]
        else:
            records["index"][-1] = 10
        write_cache(path, header, records)


@pytest.mark.parametrize("kind", [
    "foreign", "truncated", "old version", "format 2", "format 3", "duplicate statistics",
    "unsorted index", "index past every case", "empty",
])
@pytest.mark.parametrize("command", ["compare", "circuit", "verify"])
def test_cli_unreadable_werner_cache_exits_2(cache_dir, tmp_path, capsys, protocols_for,
                                             kind, command):
    path = tmp_path / "werner_n3.bcp"
    _bad_cache(kind, cache_dir / "werner_n3.bcp", path, protocols_for(3))
    bad = path.read_bytes()
    args = {
        "compare": ["compare", "--n-min", "3", "--n-max", "3", "--cache", str(tmp_path)],
        "circuit": ["circuit", "--n", "3", "--budget", "0", "--cache", str(tmp_path)],
        "verify": ["verify", str(path)],
    }[command]
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: bad cache file {path}: ")
    assert "rebuild it with: bicliff werner" in captured.err
    assert path.read_bytes() == bad  # no reader rewrites a bad cache


@pytest.mark.parametrize("kind", ["foreign", "truncated", "werner mode"])
def test_cli_eval_unreadable_transversal_cache_exits_2(cache_dir, tmp_path, capsys, kind):
    # eval reads its state file alone: an unreadable transversal cache in its
    # directory changes nothing it prints, and it leaves the file as it is
    path = tmp_path / "transversal_n2.bcp"
    if kind == "werner mode":
        path.write_bytes((cache_dir / "werner_n2.bcp").read_bytes())
    else:
        _bad_cache(kind, cache_dir / "transversal_n2.bcp", path, None)
    bad = path.read_bytes()
    with pytest.raises(ValueError):
        load_transversal_cache(path)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    _assert_eval_reads_no_cache(state, tmp_path, capsys)
    assert path.read_bytes() == bad


@pytest.mark.parametrize("kind, n, message", [
    ("incomplete", 3, "incomplete"),
    pytest.param("wide key", 2, "transversal body of 2 bytes", id="wide key"),
])
def test_cli_eval_bad_transversal_records_exit_2(cache_dir, tmp_path, capsys, kind, n, message):
    # an incomplete transversal is never written, and a transversal cache
    # holds no records: the reader refuses a header that says otherwise, or
    # a body holding a key, and eval, which reads no cache, prints its CSV
    from bicliff.cache import write_cache

    path = tmp_path / f"transversal_n{n}.bcp"
    if kind == "incomplete":
        t = build_transversal(3, seed=0, max_samples=16)
        with pytest.raises(ValueError, match=f"holds {len(t)} of 315 cosets: no incomplete"):
            write_transversal_cache(path, t, seed=0)
        assert not path.exists()
        write_cache(path, {"mode": "transversal", "n": 3, "count": len(t), "complete": False,
                           "seed": 0, "samples": t.samples_used})
    else:
        header, _ = read_cache(cache_dir / "transversal_n2.bcp")
        write_cache(path, header, np.array([14 | 1 << 4], np.uint16))  # a key, 2n bits wide
    with pytest.raises(ValueError, match=message):
        read_cache(path)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": n, "pairs": [list(EXAMPLE_PAIR)] * n}))
    _assert_eval_reads_no_cache(state, tmp_path, capsys)


def test_cli_werner_cache_of_other_n_exits_2(cache_dir, tmp_path, capsys):
    (tmp_path / "werner_n4.bcp").write_bytes((cache_dir / "werner_n3.bcp").read_bytes())
    code = run_cli(["compare", "--n-min", "4", "--n-max", "4", "--cache", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and "holds n=3" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("werner", "--n", "1"),
        ("werner", "--n", "9"),
        ("transversal", "--n", "0"),
        ("transversal", "--n", "6"),
        ("transversal", "--n", "17"),
        ("tables", "--n-min", "0"),
        ("tables", "--n-max", "17"),
        ("compare", "--n-min", "1"),
        ("compare", "--n-max", "9"),
        ("circuit", "--n", "1"),
        ("circuit", "--n", "9"),
    ],
)
def test_cli_out_of_range_pair_counts_exit_2(tmp_path, capsys, command, flag, value):
    cache_args = [] if command == "tables" else ["--cache", str(tmp_path / "c")]
    with pytest.raises(SystemExit) as exit_info:
        run_cli([command, flag, value, *cache_args])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert f"argument {flag}: invalid choice: {value}" in captured.err
    assert not (tmp_path / "c").exists()  # rejected before any work


@pytest.mark.parametrize("sample", ["0", "-1"])
def test_cli_verify_rejects_non_positive_sample(cache_dir, capsys, sample):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["verify", str(cache_dir / "werner_n2.bcp"), "--sample", sample])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert f"argument --sample: {sample} must be at least 1" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["transversal", "--n", "2", "--cache", "{cache}"],
        ["circuit", "--n", "4", "--cache", "{cache}"],
    ],
    ids=["transversal", "circuit"],
)
def test_cli_negative_seed_exits_2(cache_dir, tmp_path, capsys, args):
    cache = tmp_path / "c"
    cache.mkdir()
    for name in ("werner_n4.bcp", "transversal_n2.bcp"):
        (cache / name).write_bytes((cache_dir / name).read_bytes())
    before = {path.name: path.read_bytes() for path in cache.iterdir()}
    with pytest.raises(SystemExit) as exit_info:
        run_cli([arg.format(cache=cache) for arg in args] + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "argument --seed: -1 must be at least 0" in captured.err
    assert "Traceback" not in captured.err and "bad cache file" not in captured.err
    assert {path.name: path.read_bytes() for path in cache.iterdir()} == before


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, "--jobs", value)
        for command in ("werner", "transversal", "circuit")
        for value in ("0", "-1")
    ] + [("circuit", "--budget", "-1")],
)
def test_cli_non_positive_work_sizes_exit_2(cache_dir, tmp_path, capsys, command, flag, value):
    # a copy of a valid cache, so that "before any work" also means "not overwritten"
    cache = tmp_path / "c"
    cache.mkdir()
    for name in ("werner_n2.bcp", "transversal_n2.bcp"):
        (cache / name).write_bytes((cache_dir / name).read_bytes())
    before = {path.name: path.read_bytes() for path in cache.iterdir()}
    args = {
        "werner": ["werner", "--n", "2"],
        "transversal": ["transversal", "--n", "2"],
        "circuit": ["circuit", "--n", "2"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        run_cli([*args, flag, value, "--cache", str(cache)])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert f"argument {flag}: " in captured.err and "must be at least" in captured.err
    assert {path.name: path.read_bytes() for path in cache.iterdir()} == before


class InlinePool:
    """ProcessPoolExecutor stand-in: records the worker count it is opened
    with and runs each submitted call at once, in this process."""

    opened = []

    def __init__(self, workers):
        InlinePool.opened.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="reads the CPU affinity")
@pytest.mark.parametrize("command", ["werner", "transversal", "circuit"])
def test_cli_jobs_capped_at_usable_cores(cache_dir, tmp_path, monkeypatch, command):
    # the stand-in pool starts no process: one of that many workers would fork them all at once.
    # werner and circuit leave the pool class to blocks.ordered_calls, which
    # imports it from concurrent.futures; transversal passes its own
    cores = len(os.sched_getaffinity(0))
    module = transversal if command == "transversal" else concurrent.futures
    monkeypatch.setattr(module, "ProcessPoolExecutor", InlinePool)
    args = {
        "werner": ["werner", "--n", "2", "--cache", str(tmp_path)],
        "transversal": ["transversal", "--n", "2", "--cache", str(tmp_path)],
        "circuit": ["circuit", "--n", "2", "--budget", "64", "--cache", str(cache_dir)],
    }[command]
    for jobs, workers in [(["--jobs", "100000"], cores), (["--jobs", str(cores + 1)], cores),
                          (["--jobs", "1"], 1), ([], 1)]:
        InlinePool.opened = []
        with contextlib.redirect_stdout(io.StringIO()):
            run_cli([*args, *jobs])
        if workers > 1:
            assert InlinePool.opened and set(InlinePool.opened) == {workers}
        else:
            assert InlinePool.opened == []  # one worker runs inline and opens no pool


@pytest.mark.parametrize(
    "command, flag",
    [("werner", "--seed"), ("eval", "--jobs"), ("eval", "--seed"),
     ("compare", "--jobs"), ("compare", "--seed"),
     ("transversal", "--budget"), ("eval", "--n"), ("circuit", "--allow-swap"),
     ("verify", "--seed")],
)
def test_cli_unread_work_flags_are_unrecognised(cache_dir, tmp_path, capsys, command, flag):
    # these commands neither fan out nor draw random numbers (verify
    # compares every record), the transversal takes no sample budget, eval
    # reads n from the state file, and circuit searches one family, which
    # ends in no SWAP
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [list(EXAMPLE_PAIR)] * 2}))
    args = {
        "werner": ["werner", "--n", "2"],
        "eval": ["eval", str(state)],
        "compare": ["compare", "--n-min", "2", "--n-max", "2"],
        "transversal": ["transversal", "--n", "2"],
        "circuit": ["circuit", "--n", "2"],
        "verify": ["verify", str(cache_dir / "werner_n2.bcp")],
    }[command]
    cache = tmp_path / "c"
    with pytest.raises(SystemExit) as exit_info:
        run_cli([*args, flag, "2", "--cache", str(cache)])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag} 2" in captured.err
    assert not cache.exists()  # rejected before any work


def test_stats_from_counts_calls_per_command(tmp_path, capsys, monkeypatch):
    # compare and circuit read their curves straight from the histograms; only
    # the werner summary row builds the exact polynomials, of its winner alone
    import bicliff.werner

    calls = []
    real = bicliff.werner.stats_from_counts

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bicliff.werner, "stats_from_counts", counted)
    cache = str(tmp_path)
    assert run_cli(["werner", "--n", "4", "--cache", cache]) == 0
    assert len(calls) == 1
    assert run_cli(["werner", "--n", "3", "--cache", cache]) == 0
    calls.clear()
    for metric in ("fidelity", "yield", "ree", "target-rate"):
        assert run_cli(["compare", "--n-min", "3", "--n-max", "4", "--metric", metric,
                        "--cache", cache, "--f-step", "0.01"]) == 0
    assert run_cli(["circuit", "--n", "4", "--budget", "4096", "--cache", cache]) in (0, 4)
    capsys.readouterr()
    assert calls == []
