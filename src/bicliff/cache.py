"""Protocol cache files: a JSON header, then the records of one mode.

Layout: magic, 4-byte big-endian header length, header JSON, then the body.
A Werner-mode body holds, for each record, a 4-byte big-endian length and
the record JSON (canonical key order): the source case, representative rows
and the preimage-coset histograms that fix the exact statistics.  A
transversal-mode body is one little-endian block of count x (3n-1) unsigned
integers, one line per coset in ascending key order: the n-1 key masks, then
the 2n representative row masks.  They are uint16 when 2n <= 16 and uint32
above.  Each mode has its own format version.  Verification takes a sample
of records, checks that their stored rows are symplectic, recomputes their
derived data from those rows and demands exact agreement.
"""

from __future__ import annotations

import json
import struct
from itertools import permutations
from pathlib import Path

import numpy as np

from .gf2 import MAX_PAIRS, SymplecticMatrix, is_symplectic_rows
# Imported but not called: the benchmark's tracer (perfbench/spans.py) looks
# these names up in this module.
from .ratpoly import poly_from_strings  # noqa: F401
from .states import coset_histograms
from .states import werner_counts  # noqa: F401
from .transversal import Transversal, first_bad_record
from .werner import Protocol, WernerCase, atomic_open

MAGIC = b"BCPC\x01"
# Werner records hold coset histograms since version 2 (before: statistic
# polynomials); a transversal is one binary block since version 2 (before:
# one JSON record per coset).
FORMAT_VERSIONS = {"werner": 2, "transversal": 2}


def _encode(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def write_cache(path, header: dict, records) -> None:
    """Write a cache atomically.

    records is an iterable of record dicts in Werner mode and a (keys, rows)
    pair of arrays in transversal mode; the header is written as given.
    """
    header = dict(header)
    header["format_version"] = FORMAT_VERSIONS[header["mode"]]
    blob = _encode(header)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(blob)))
        fh.write(blob)
        if header["mode"] == "transversal":
            keys, rows = records
            fh.write(np.concatenate([keys, rows], axis=1).astype(_block_type(header["n"])).tobytes())
            return
        for rec in records:
            data = _encode(rec)
            fh.write(struct.pack(">I", len(data)))
            fh.write(data)


def _block_type(n: int) -> np.dtype:
    return np.dtype("<u2" if 2 * n <= 16 else "<u4")


def _strictly_ascending(keys: np.ndarray) -> bool:
    """Whether each key row is lexicographically greater than the one before."""
    greater = np.zeros(max(len(keys) - 1, 0), bool)
    equal = ~greater
    for column in keys.T:
        greater |= equal & (column[1:] > column[:-1])
        equal &= column[1:] == column[:-1]
    return bool(greater.all())


def _read_block(fh, header: dict) -> tuple:
    """(keys, rows) uint64 arrays of a transversal body."""
    n, count = header.get("n"), header.get("count")
    if not (type(n) is int and 1 <= n <= MAX_PAIRS and type(count) is int and count >= 0):
        raise ValueError(f"bad transversal header: n={n!r}, count={count!r}")
    dtype, width = _block_type(n), 3 * n - 1
    body = fh.read()
    if len(body) != count * width * dtype.itemsize:
        raise ValueError(
            f"transversal body of {len(body)} bytes does not hold {count} cosets "
            f"of {width} x {dtype.itemsize} bytes"
        )
    block = np.frombuffer(body, dtype).reshape(count, width).astype(np.uint64)
    keys, rows = np.ascontiguousarray(block[:, : n - 1]), np.ascontiguousarray(block[:, n - 1 :])
    if not _strictly_ascending(keys):
        raise ValueError("transversal keys are not strictly ascending")
    return keys, rows


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("file is truncated")
    return data


def read_cache(path):
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError("not a protocol cache")
        (hlen,) = struct.unpack(">I", _read_exact(fh, 4))
        header = json.loads(_read_exact(fh, hlen))
        if not isinstance(header, dict):
            raise ValueError("no cache header")
        mode, version = header.get("mode"), header.get("format_version")
        if FORMAT_VERSIONS.get(mode) != version:
            raise ValueError(f"unsupported {mode} cache version {version}")
        if mode == "transversal":
            return header, _read_block(fh, header)
        records = []
        while True:
            raw = fh.read(4)
            if not raw:
                break
            if len(raw) != 4:
                raise ValueError("file is truncated")
            (rlen,) = struct.unpack(">I", raw)
            records.append(json.loads(_read_exact(fh, rlen)))
    return header, records


def protocol_record(p: Protocol) -> dict:
    case = p.source
    return {
        "case": [case.a, case.b, case.e],
        "index": p.case_index,
        "rows": list(p.rep.rows),
        "counts": [list(h) for h in p.counts],
    }


def _record_counts(rec: dict, n: int) -> tuple:
    """The stored histograms: 4 lists of n+1 counts, each summing to 2^(n-1)."""
    counts = rec["counts"]
    if not (isinstance(counts, list) and len(counts) == 4 and all(
        isinstance(h, list) and len(h) == n + 1
        and all(type(c) is int and c >= 0 for c in h) and sum(h) == 1 << (n - 1)
        for h in counts
    )):
        raise ValueError(f"record {rec['index']}: malformed coset histograms")
    return tuple(map(tuple, counts))


def record_protocol(rec: dict, n: int) -> Protocol:
    a, b, e = rec["case"]
    rep = SymplecticMatrix(n, rec["rows"])
    return Protocol(n, rep, _record_counts(rec, n), WernerCase(n, a, b, e), rec["index"])


def write_werner_cache(path, n: int, protocols) -> None:
    header = {"mode": "werner", "n": n, "count": len(protocols)}
    write_cache(path, header, (protocol_record(p) for p in protocols))


def load_werner_cache(path):
    header, records = read_cache(path)
    if header["mode"] != "werner":
        raise ValueError("not a werner-mode cache")
    n = header["n"]
    return header, [record_protocol(rec, n) for rec in records]


def write_transversal_cache(path, transversal, seed) -> None:
    header = {
        "mode": "transversal",
        "n": transversal.n,
        "count": len(transversal),
        "complete": transversal.complete,
        "seed": seed,
        "samples": transversal.samples_used,
    }
    write_cache(path, header, (transversal.keys, transversal.rows))


def load_transversal_cache(path):
    header, records = read_cache(path)
    if header["mode"] != "transversal":
        raise ValueError("not a transversal-mode cache")
    keys, rows = records
    return header, Transversal(header["n"], keys, rows, header["complete"], header["samples"])


def _first_bad_werner_record(records, n: int):
    """`first_bad_record` of Werner records, in one batched pass.

    A record is sound when its rows are symplectic and give its stored coset
    histograms, up to the order of the three non-base cosets.
    """
    rows = np.array([SymplecticMatrix(n, rec["rows"]).rows for rec in records], np.uint64)
    rows = rows.reshape(-1, 2 * n)
    stored = np.array([_record_counts(rec, n) for rec in records]).reshape(-1, 4, n + 1)
    fresh = coset_histograms(rows, n)
    same = (fresh[:, 0] == stored[:, 0]).all(axis=-1) & np.any(
        [(fresh[:, perm] == stored[:, 1:]).all(axis=(1, 2)) for perm in permutations((1, 2, 3))],
        axis=0,
    )
    symplectic = is_symplectic_rows(rows, n)
    bad = np.flatnonzero(~(symplectic & same))
    if not bad.size:
        return None
    i = int(bad[0])
    return i, "statistics mismatch" if symplectic[i] else "representative is not symplectic"


def verify_cache(path, sample: int = 100, seed: int = 0):
    """Recompute derived data of sampled records; exact match required.

    Every stored representative must be symplectic.  Werner records: the
    stored coset histograms must equal those recomputed from the stored
    representative, up to the order of the three non-base cosets.
    Transversal records: the stored key must equal the recomputed coset key,
    checked by `first_bad_record` as `enumerate_stats` does.  Either check
    runs on all sampled records at once.  Returns (ok, checked, message).
    """
    header, records = read_cache(path)
    n = header["n"]
    transversal = header["mode"] == "transversal"
    count = len(records[0]) if transversal else len(records)
    rng = np.random.default_rng(seed)
    idx = np.arange(count)
    if count > sample:
        idx = np.sort(rng.choice(count, size=sample, replace=False))
    if transversal:
        keys, rows = records
        bad = first_bad_record(keys[idx], rows[idx], n)
    else:
        bad = _first_bad_werner_record([records[i] for i in idx], n)
    if bad is not None:
        checked, problem = bad
        return False, checked, f"record {idx[checked]}: {problem}"
    return True, len(idx), "ok"
