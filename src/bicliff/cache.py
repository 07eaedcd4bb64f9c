"""Protocol cache files: a JSON header, then one block of fixed-width records.

Layout: magic, 4-byte big-endian header length, header JSON, then `count`
records of the little-endian structured dtype `record_dtype(mode, n)`.  A
Werner record is a case index alone, in ascending order: the case's position
when cases run over (a, b) ascending, then graph class ascending, as
`werner.case_at` decodes it, so a new order needs a new format version.  The
case, its representative and the coset histograms that fix the statistics
follow from it; the loader derives them for all records at once.  A transversal
record is the coset key alone, its n-1 masks each a uint16 (so n <= 8), one
record per coset in ascending key order; a loaded transversal's keys are a
view of them, and the shifts are completed from the keys when used.  At
n = 1 the one key is empty and the body holds no bytes.  Each mode has its
own format version.  Verification takes a sample of records and checks them:
Werner indices against a fresh enumeration's, transversal records by
`transversal.first_bad_record`, the check `eval` runs on every record.  Each
function imports `werner`, or `transversal` and `groups`, only for the mode
it handles, so that a command loads the modules of its own cache mode alone.
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
from .states import decode_counts, werner_keys
from .states import werner_counts  # noqa: F401

MAGIC = b"BCPC\x01"
# Werner records held coset histograms from version 2 (before: statistic
# polynomials), are fixed-width since version 3 (before: one JSON record
# each), held the case index and histograms at version 4 (version 3: also the
# case and representative rows) and the index alone since version 5; a
# transversal is one binary block since version 2 (before: one JSON record per
# coset), held each coset's key and two shifts at version 3 (version 2: the
# key and the 2n representative rows) and holds the key alone since version 4.
FORMAT_VERSIONS = {"werner": 5, "transversal": 4}


def record_dtype(mode: str, n: int) -> np.dtype:
    """One record of an n-pair cache of the given mode."""
    if mode == "werner":
        return np.dtype([("index", "<u4")])
    from .transversal import MAX_TRANSVERSAL_PAIRS

    if n > MAX_TRANSVERSAL_PAIRS:
        raise ValueError(f"a transversal holds at most {MAX_TRANSVERSAL_PAIRS} pairs, not n={n}")
    return np.dtype([("key", "<u2", (n - 1,))])


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
    """Whether each key row is lexicographically greater than the one before.

    The columns run from last to first, so one flag per row pair holds its
    order on the columns seen so far, and each step makes one temporary.
    """
    greater = np.zeros(max(len(keys) - 1, 0), bool)
    for column in keys.T[::-1]:
        greater &= column[1:] == column[:-1]
        greater |= column[1:] > column[:-1]
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
    and its case indices must be strictly ascending and below `case_count(n)`.
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
        # with a count: frombuffer cannot count the zero-width records of n = 1
        records = np.frombuffer(_read_exact(fh, length), dtype, count=count)
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
            (np.r_[False, index[1:] <= index[:-1]], "case index not above the one before"),
            (index >= case_count(n), f"case index not below {case_count(n)}"),
        ):
            if bad.any():
                raise ValueError(f"record {np.argmax(bad)}: {problem}")
    return header, records


def write_werner_cache(path, n: int, protocols) -> None:
    records = np.array([p.case_index for p in protocols], record_dtype("werner", n))
    write_cache(path, {"mode": "werner", "n": n, "count": len(records)}, records)


def load_werner_cache(path):
    """(header, protocols) of a Werner cache: `werner_protocols` of its records."""
    header, records = read_cache(path)
    if header["mode"] != "werner":
        raise ValueError("not a werner-mode cache")
    return header, werner_protocols(header["n"], records["index"])


def werner_protocols(n: int, index: np.ndarray) -> list:
    """The protocols of a Werner cache's case indices, the histograms of all
    records derived at once by the kernel the build's keys are checked against."""
    from .werner import Protocol, case_at, first_rows, representative_rows

    index = index.tolist()
    rows = representative_rows([case_at(n, i) for i in index], n)
    keys = werner_keys(rows.astype(np.uint16), n)  # 2n <= 16 bits: a quarter of int64's memory
    # a complete cache holds each protocol class once: a repeat is a bad index
    repeated = np.ones(len(keys), dtype=bool)
    repeated[first_rows(keys)] = False
    if repeated.any():
        raise ValueError(f"record {np.argmax(repeated)}: statistics of an earlier record")
    return [Protocol(n, row, i) for i, row in zip(index, decode_counts(keys, n))]


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
    records["key"] = transversal.keys
    write_cache(path, header, records)


def load_transversal_cache(path):
    from .transversal import Transversal

    header, records = read_cache(path)
    if header["mode"] != "transversal":
        raise ValueError("not a transversal-mode cache")
    return header, Transversal(header["n"], records["key"], header["samples"])


def verify_cache(path, sample: int = 100, seed: int = 0):
    """Check a sample of records; every one must pass.

    Werner records: the cache must load, hold one record per protocol of a
    fresh `distinct_protocols`, and each sampled record the index of the
    protocol in its place.  Transversal records: the stored key must pass
    `first_bad_record`, the check `enumerate_stats` runs.  Returns (ok,
    checked, message).
    """
    header, records = read_cache(path)
    n = header["n"]
    idx = np.arange(len(records))
    if len(records) > sample:
        idx = np.sort(np.random.default_rng(seed).choice(len(records), size=sample, replace=False))
    if header["mode"] == "transversal":
        from .transversal import first_bad_record

        bad = first_bad_record(records["key"][idx], n)
    else:
        from .werner import distinct_protocols

        werner_protocols(n, records["index"])  # two records with the same statistics do not load
        fresh = np.array([p.case_index for p in distinct_protocols(n)])
        if len(fresh) != len(records):
            return False, 0, f"{len(records)} records, not the {len(fresh)} protocols of n={n}"
        got, want = records["index"][idx], fresh[idx]
        wrong = np.flatnonzero(got != want)[:1]
        bad = next(((int(k), f"case index {got[k]}, not {want[k]}") for k in wrong), None)
    if bad is not None:
        checked, problem = bad
        return False, checked, f"record {idx[checked]}: {problem}"
    return True, len(idx), "ok"
