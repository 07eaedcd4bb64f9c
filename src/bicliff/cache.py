"""Protocol cache files: a JSON header plus length-prefixed JSON records.

Layout: magic, 4-byte big-endian header length, header JSON, then for each
record a 4-byte big-endian length and the record JSON (canonical key order).
Werner-mode records carry the source case, representative rows and exact
statistics as coefficient strings; transversal-mode records carry the coset
key and representative rows.  Verification takes a sample of records,
checks that their stored rows are symplectic, recomputes their derived data
from those rows and demands exact agreement.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .gf2 import SymplecticMatrix, is_symplectic
from .groups import coset_key
from .ratpoly import poly_from_strings, poly_to_strings
from .states import DistStats, stats_from_counts, werner_counts
from .werner import Protocol, WernerCase, atomic_open

MAGIC = b"BCPC\x01"
FORMAT_VERSION = 1


def _encode(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def write_cache(path, header: dict, records) -> None:
    header = dict(header)
    header["format_version"] = FORMAT_VERSION
    blob = _encode(header)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(blob)))
        fh.write(blob)
        for rec in records:
            data = _encode(rec)
            fh.write(struct.pack(">I", len(data)))
            fh.write(data)


def _read_exact(fh, count: int, path) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(f"{path} is truncated")
    return data


def read_cache(path):
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path} is not a protocol cache")
        (hlen,) = struct.unpack(">I", _read_exact(fh, 4, path))
        header = json.loads(_read_exact(fh, hlen, path))
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported cache version {header.get('format_version')}")
        records = []
        while True:
            raw = fh.read(4)
            if not raw:
                break
            if len(raw) != 4:
                raise ValueError(f"{path} is truncated")
            (rlen,) = struct.unpack(">I", raw)
            records.append(json.loads(_read_exact(fh, rlen, path)))
    return header, records


def protocol_record(p: Protocol) -> dict:
    case = p.source
    return {
        "case": [case.a, case.b, case.e],
        "index": p.case_index,
        "rows": list(p.rep.rows),
        "stats": {
            "p": poly_to_strings(p.stats.p_suc),
            "f": poly_to_strings(p.stats.f_num),
            "fis": [poly_to_strings(q) for q in p.stats.fi_nums],
        },
    }


def _record_stats(rec: dict) -> DistStats:
    stats = rec["stats"]
    return DistStats(
        poly_from_strings(stats["p"]),
        poly_from_strings(stats["f"]),
        tuple(poly_from_strings(q) for q in stats["fis"]),
    )


def record_protocol(rec: dict, n: int) -> Protocol:
    a, b, e = rec["case"]
    return Protocol(
        n=n,
        rep=SymplecticMatrix(n, rec["rows"]),
        stats=_record_stats(rec),
        counts=None,
        source=WernerCase(n, a, b, e),
        case_index=rec["index"],
    )


def write_werner_cache(path, n: int, protocols, params=None) -> None:
    header = {"mode": "werner", "n": n, "count": len(protocols)}
    if params:
        header["params"] = params
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
        "count": len(transversal.reps),
        "complete": transversal.complete,
        "seed": seed,
        "samples": transversal.samples_used,
    }
    records = (
        {"key": list(key), "rows": list(rep.rows)}
        for key, rep in sorted(transversal.reps.items())
    )
    write_cache(path, header, records)


def load_transversal_cache(path):
    from .transversal import Transversal

    header, records = read_cache(path)
    if header["mode"] != "transversal":
        raise ValueError("not a transversal-mode cache")
    n = header["n"]
    reps = {
        tuple(rec["key"]): SymplecticMatrix(n, rec["rows"]) for rec in records
    }
    return header, Transversal(
        n, reps, header["complete"], header["samples"]
    )


def verify_cache(path, sample: int = 100, seed: int = 0):
    """Recompute derived data of sampled records; exact match required.

    Every stored representative must be symplectic.  Werner records: the
    stored statistics must equal the statistics recomputed from the stored
    representative.  Transversal records: the stored key must equal the
    recomputed coset key.
    Returns (ok, checked, message).
    """
    header, records = read_cache(path)
    n = header["n"]
    rng = np.random.default_rng(seed)
    idx = range(len(records))
    if len(records) > sample:
        idx = sorted(rng.choice(len(records), size=sample, replace=False))
    checked = 0
    for i in idx:
        rec = records[i]
        rep = SymplecticMatrix(n, rec["rows"])
        if not is_symplectic(rep):
            return False, checked, f"record {i}: representative is not symplectic"
        if header["mode"] == "werner":
            if stats_from_counts(werner_counts(rep, n), n) != _record_stats(rec):
                return False, checked, f"record {i}: statistics mismatch"
        else:
            if coset_key(rep) != tuple(rec["key"]):
                return False, checked, f"record {i}: coset key mismatch"
        checked += 1
    return True, checked, "ok"
