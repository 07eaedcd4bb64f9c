"""Protocol cache files: a JSON header, then a block of fixed-width records.

Layout: magic, 4-byte big-endian header length, header JSON, then `count`
records.  A Werner record is a case index alone, a little-endian uint32 of
`WERNER_RECORD`, in ascending order: the case's position when cases run
over (a, b) ascending, then graph class ascending, as `werner.case_at`
decodes it, so a new order needs a new format version.  The case, its
representative and the coset histograms that fix the statistics follow from
it; the loader derives them for all records at once.  A transversal is a
pure function of n, so its cache is the header alone: n, count, complete,
and the seed and sample count of the build that wrote it.  Only a complete
transversal is written; its keys are `transversal.enumerate_coset_keys(n)`,
which the reader's caller enumerates when it needs them.  Each mode has its
own format version.  Verification checks every Werner index against a fresh
enumeration's, and a transversal by its header alone.  Only the Werner
functions import `werner`, so that a command loads the modules of its own
cache mode alone.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .orders import MAX_EVAL_PAIRS, MAX_PAIRS, dn_index
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
# key and the 2n representative rows), held the key alone at version 4 and
# is the header alone since version 5.
FORMAT_VERSIONS = {"werner": 5, "transversal": 5}
WERNER_RECORD = np.dtype([("index", "<u4")])


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


def write_cache(path, header: dict, records: np.ndarray | None = None) -> None:
    """Write a cache atomically: the header as given, then the records, if any.

    records is an array of `WERNER_RECORD` for a Werner cache.
    """
    header = {**header, "format_version": FORMAT_VERSIONS[header["mode"]]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(MAGIC + struct.pack(">I", len(blob)) + blob)
        if records is not None:
            records.tofile(fh)  # from the array's own buffer, with no copy as bytes


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("file is truncated")
    return data


def read_cache(path):
    """(header, records) of a cache file.

    Werner records are an array of `WERNER_RECORD`: the body must hold
    exactly the header's count of them, at least one, with case indices
    strictly ascending and below `case_count(n)`.  A transversal's records
    are the positions of its cosets in key order, range(dn_index(n)): its
    body must be empty, n at most `MAX_EVAL_PAIRS`, and its header must say
    complete=true for all `dn_index(n)` cosets.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError("not a protocol cache")
        (hlen,) = struct.unpack(">I", _read_exact(fh, 4))
        header = json.loads(_read_exact(fh, hlen))
        if not isinstance(header, dict):
            raise ValueError("no cache header")
        mode, version, n, count = (header.get(k) for k in ("mode", "format_version", "n", "count"))
        if type(mode) is not str or mode not in FORMAT_VERSIONS:
            raise ValueError(f"header field mode is {mode!r}, not one of {sorted(FORMAT_VERSIONS)}")
        if FORMAT_VERSIONS[mode] != version:
            raise ValueError(f"unsupported {mode} cache version {version}")
        if not (type(n) is int and 1 <= n <= MAX_PAIRS and type(count) is int and count >= 0):
            raise ValueError(f"bad {mode} header: n={n!r}, count={count!r}")
        length = os.fstat(fh.fileno()).st_size - fh.tell()  # no header count sizes a read
        if mode == "transversal":
            return header, _transversal_cosets(header, length)
        if length != count * WERNER_RECORD.itemsize:
            raise ValueError(
                f"{mode} body of {length} bytes does not hold {count} records "
                f"of {WERNER_RECORD.itemsize} bytes"
            )
        records = np.frombuffer(_read_exact(fh, length), WERNER_RECORD)
    from .werner import case_count

    if count == 0:
        raise ValueError("no records: every Werner enumeration finds at least 2 protocols")
    index = records["index"]
    descending = np.flatnonzero(index[1:] <= index[:-1])
    if descending.size:
        raise ValueError(f"record {descending[0] + 1}: case index not above the one before")
    if int(index[-1]) >= case_count(n):  # ascending: the last index is the largest
        bad = np.searchsorted(index, case_count(n))
        raise ValueError(f"record {bad}: case index not below {case_count(n)}")
    return header, records


def _transversal_cosets(header: dict, length: int) -> range:
    """The coset positions a transversal cache's header stands for, once the
    header and the body's length of bytes are checked."""
    n, count, complete = header["n"], header["count"], header.get("complete")
    if n > MAX_EVAL_PAIRS:
        raise ValueError(f"a transversal holds at most {MAX_EVAL_PAIRS} pairs, not n={n}")
    if length:
        raise ValueError(f"transversal body of {length} bytes: the cache is its header alone")
    if complete is not True or count != dn_index(n):
        raise ValueError(f"header says complete={complete!r} for {count} of {dn_index(n)} "
                         "cosets: no incomplete transversal is cached")
    return range(count)


def write_werner_cache(path, n: int, protocols) -> None:
    records = np.array([p.case_index for p in protocols], WERNER_RECORD)
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
    """Write a transversal's header alone, with the seed and sample count of
    its build.  Raises ValueError, and writes nothing, for an incomplete
    transversal: a complete one's keys are all of `enumerate_coset_keys(n)`,
    as `build_transversal` finds them there."""
    if not transversal.complete:
        raise ValueError(f"the transversal holds {len(transversal)} of "
                         f"{transversal.target_size} cosets: no incomplete transversal is cached")
    header = {
        "mode": "transversal",
        "n": transversal.n,
        "count": len(transversal),
        "complete": transversal.complete,
        "seed": seed,
        "samples": transversal.samples_used,
    }
    write_cache(path, header)


# Not called by any command: the benchmark's tracer (perfbench/spans.py) looks
# this name up in this module.
def load_transversal_cache(path):
    """(header, cosets) of a transversal cache: the range of its coset
    positions in key order, once the header is checked."""
    header, cosets = read_cache(path)
    if header["mode"] != "transversal":
        raise ValueError("not a transversal-mode cache")
    return header, cosets


def verify_cache(path):
    """Check a cache's records; every one must pass.

    Werner records: the cache must load and hold, record for record, the
    case indices of a fresh `distinct_protocols`.  A transversal is its
    header alone, which the reader checks: all its cosets count as checked.
    Returns (ok, checked, message).
    """
    header, records = read_cache(path)
    if header["mode"] == "transversal":
        return True, len(records), "ok"
    from .werner import distinct_protocols

    n, got = header["n"], records["index"]
    werner_protocols(n, got)  # two records with the same statistics do not load
    want = np.array([p.case_index for p in distinct_protocols(n)])
    if len(want) != len(got):
        return False, 0, f"{len(got)} records, not the {len(want)} protocols of n={n}"
    wrong = np.flatnonzero(got != want)
    if wrong.size:
        k = int(wrong[0])
        return False, k, f"record {k}: case index {got[k]}, not {want[k]}"
    return True, len(got), "ok"
