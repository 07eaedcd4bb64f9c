"""Protocol cache files: a JSON header, then one block of fixed-width records.

Layout: magic, 4-byte big-endian header length, header JSON, then `count`
records of the little-endian structured dtype `record_dtype(mode, n)`.  A
Werner record holds a case index and the preimage-coset histograms that fix
the exact statistics, in ascending index order.  The index is the case's
position when cases run over (a, b) ascending, then graph class ascending,
as `werner.case_at` decodes it, so a new order needs a new format version;
the case and its representative follow from it.  A transversal
record holds the n-1 key masks, then the 2n representative row masks, one
record per coset in ascending key order, each a uint16 (so n <= 8), and a
loaded transversal's keys and rows are views of them.  Each mode has its own
format version.  Verification takes a sample of records, recomputes their
derived data and demands exact agreement.  Each function imports `werner`, or
`transversal` and `groups`, only for the mode it handles, so that a command
loads the modules of its own cache mode alone.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .orders import MAX_PAIRS, dn_index
# Imported but not called: the benchmark's tracer (perfbench/spans.py) looks
# these names up in this module.
from .ratpoly import poly_from_strings  # noqa: F401
from .states import encode_counts, werner_keys
from .states import werner_counts  # noqa: F401

MAGIC = b"BCPC\x01"
# Werner records hold coset histograms since version 2 (before: statistic
# polynomials), are fixed-width since version 3 (before: one JSON record
# each) and hold only the case index and histograms since version 4 (before:
# also the case and the representative rows); a transversal is one binary
# block since version 2 (before: one JSON record per coset).
FORMAT_VERSIONS = {"werner": 4, "transversal": 2}


def record_dtype(mode: str, n: int) -> np.dtype:
    """One record of an n-pair cache of the given mode."""
    if mode == "werner":
        # a histogram bin is at most 2^(n-1) <= 128 for the n <= 8 of Werner enumeration
        return np.dtype([("index", "<u4"), ("counts", "u1", (4, n + 1))])
    from .transversal import MAX_TRANSVERSAL_PAIRS

    if n > MAX_TRANSVERSAL_PAIRS:
        raise ValueError(f"a transversal holds at most {MAX_TRANSVERSAL_PAIRS} pairs, not n={n}")
    return np.dtype([("key", "<u2", (n - 1,)), ("rows", "<u2", (2 * n,))])


@contextmanager
def atomic_open(path: Path):
    """Binary write handle whose data replaces `path` only once the block ends.

    The data goes to a temp file beside `path`, which is renamed over it on
    success and removed on any error, so `path` is never left half written.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_cache(path, header: dict, records: np.ndarray) -> None:
    """Write a cache atomically: the header as given, then the records.

    records is an array of `record_dtype(header["mode"], header["n"])`.
    """
    header = {**header, "format_version": FORMAT_VERSIONS[header["mode"]]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(MAGIC + struct.pack(">I", len(blob)) + blob)
        records.tofile(fh)  # from the array's own buffer, with no copy as bytes


def _strictly_ascending(keys: np.ndarray) -> bool:
    """Whether each key row is lexicographically greater than the one before."""
    greater = np.zeros(max(len(keys) - 1, 0), bool)
    equal = ~greater
    for column in keys.T:
        greater |= equal & (column[1:] > column[:-1])
        equal &= column[1:] == column[:-1]
    return bool(greater.all())


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("file is truncated")
    return data


def read_cache(path):
    """(header, records) of a cache file, records an array of `record_dtype`.

    The body must hold exactly the header's count of records.  Transversal
    keys must be strictly ascending, and the header's `complete` must say
    whether the records are every coset.  A Werner cache must hold records,
    its histograms must each sum to 2^(n-1), and its case indices must be
    strictly ascending and below `case_count(n)`.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError("not a protocol cache")
        (hlen,) = struct.unpack(">I", _read_exact(fh, 4))
        header = json.loads(_read_exact(fh, hlen))
        if not isinstance(header, dict):
            raise ValueError("no cache header")
        mode, version, n, count = (header.get(k) for k in ("mode", "format_version", "n", "count"))
        if FORMAT_VERSIONS.get(mode) != version:
            raise ValueError(f"unsupported {mode} cache version {version}")
        if not (type(n) is int and 1 <= n <= MAX_PAIRS and type(count) is int and count >= 0):
            raise ValueError(f"bad {mode} header: n={n!r}, count={count!r}")
        dtype = record_dtype(mode, n)
        length = os.fstat(fh.fileno()).st_size - fh.tell()  # no header count sizes a read
        if length != count * dtype.itemsize:
            raise ValueError(
                f"{mode} body of {length} bytes does not hold {count} records "
                f"of {dtype.itemsize} bytes"
            )
        records = np.frombuffer(_read_exact(fh, length), dtype)
    if mode == "transversal":
        if not _strictly_ascending(records["key"]):
            raise ValueError("transversal keys are not strictly ascending")
        complete, total = header.get("complete"), dn_index(n)
        if complete is not (count == total):
            raise ValueError(f"header says complete={complete!r} for {count} of {total} cosets")
    if mode == "werner":
        from .werner import case_count

        if count == 0:
            raise ValueError("no records: every Werner enumeration finds at least 2 protocols")
        index = records["index"]
        for bad, problem in (
            ((records["counts"].sum(axis=-1) != 1 << (n - 1)).any(axis=1), "malformed coset histograms"),
            (np.r_[False, index[1:] <= index[:-1]], "case index not above the one before"),
            (index >= case_count(n), f"case index not below {case_count(n)}"),
        ):
            if bad.any():
                raise ValueError(f"record {np.argmax(bad)}: {problem}")
    return header, records


def write_werner_cache(path, n: int, protocols) -> None:
    records = np.array([(p.case_index, p.counts) for p in protocols], record_dtype("werner", n))
    write_cache(path, {"mode": "werner", "n": n, "count": len(records)}, records)


def load_werner_cache(path):
    from .werner import Protocol

    header, records = read_cache(path)
    if header["mode"] != "werner":
        raise ValueError("not a werner-mode cache")
    n = header["n"]
    fields = (records[name].tolist() for name in ("index", "counts"))
    return header, [Protocol(n, tuple(map(tuple, counts)), index) for index, counts in zip(*fields)]


def write_transversal_cache(path, transversal, seed) -> None:
    header = {
        "mode": "transversal",
        "n": transversal.n,
        "count": len(transversal),
        "complete": transversal.complete,
        "seed": seed,
        "samples": transversal.samples_used,
    }
    records = np.empty(len(transversal), record_dtype("transversal", transversal.n))
    records["key"], records["rows"] = transversal.keys, transversal.rows
    write_cache(path, header, records)


def load_transversal_cache(path):
    from .transversal import Transversal

    header, records = read_cache(path)
    if header["mode"] != "transversal":
        raise ValueError("not a transversal-mode cache")
    return header, Transversal(header["n"], records["key"], records["rows"], header["samples"])


def _first_bad_werner_record(records: np.ndarray, n: int):
    """`first_bad_record` of Werner records, representatives and statistics batched.

    A record is sound when the representative of the case at its index has
    its stored coset histograms, up to the order of the three non-base cosets.
    """
    from .werner import case_at, representative_rows

    rows = representative_rows([case_at(n, index) for index in records["index"].tolist()], n)
    bad = np.flatnonzero((werner_keys(rows, n) != encode_counts(records["counts"])).any(axis=-1))
    return (int(bad[0]), "statistics mismatch") if bad.size else None


def verify_cache(path, sample: int = 100, seed: int = 0):
    """Recompute derived data of sampled records; exact match required.

    Werner records: the stored coset histograms must equal those of the
    representative rebuilt from the stored case index, up to the order of the
    three non-base cosets, checked for all sampled records at once.
    Transversal records: the stored representative must be symplectic and
    its coset key the stored key, checked by `first_bad_record` as
    `enumerate_stats` does.  Returns (ok, checked, message).
    """
    header, records = read_cache(path)
    n = header["n"]
    idx = np.arange(len(records))
    if len(records) > sample:
        idx = np.sort(np.random.default_rng(seed).choice(len(records), size=sample, replace=False))
    if header["mode"] == "transversal":
        from .transversal import first_bad_record

        bad = first_bad_record(records["key"][idx], records["rows"][idx], n)
    else:
        bad = _first_bad_werner_record(records[idx], n)
    if bad is not None:
        checked, problem = bad
        return False, checked, f"record {idx[checked]}: {problem}"
    return True, len(idx), "ok"
