"""Right-coset transversals of the distillation subgroup, by their keys.

A coset's statistics depend only on its key K, the reduced basis of the
base preimage, and on two shifts t1, t2 that split K^perp / K into the
kept pair's I, X, Y and Z classes K, t1 + K, t1 + t2 + K and t2 + K.  The
shifts are read off a canonical representative completed deterministically
from the key alone, so a transversal is its sorted keys: a pure function of
n.  `enumerate_coset_keys` lists them directly, as the reduced bases of the
isotropic (n-1)-subspaces of F2^2n; `eval` takes its keys from it.  The
coupon collector `build_transversal` finds the same keys by sampling random
symplectic matrices, for every seed, worker count and sampling order, and
the `transversal` command checks it against the enumeration.

Sampling, completion and statistics each run on whole arrays of matrices:
a block of samples is one `random_symplectic_rows` call (each matrix drawn
on the null basis of its constraints) and one `coset_keys` call, whose keys
merge into one set as big-endian byte strings; `enumerate_stats` completes
the keys one chunk at a time, in one lowest-bit `gf2.Echelon` per chunk, and
sums every coset of the chunk with one gather.  Keys come from the same
kernel with top-bit pivots (`gf2.rref_rows`).  Keys are uint16 masks, so
n <= 8; the completion's words hold 3n <= 24 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import ordered_calls
from .gf2 import Echelon, SymplecticMatrix, low_bit, random_symplectic_rows, swap_halves, top_bit
from .groups import coset_keys
from .orders import dn_index
from .states import BellDiagonalState, preimage_cosets
# Imported but not called: the benchmark's tracer (perfbench/spans.py) looks
# these names up in this module.
from .gf2 import random_symplectic  # noqa: F401
from .groups import coset_key  # noqa: F401
from .states import numeric_stats  # noqa: F401

SAMPLE_BLOCK = 1024
MAX_TRANSVERSAL_PAIRS = 8  # every 2n-bit row mask fits a uint16
# cosets per array step of completion and statistics, to bound memory at n=5
CHUNK = 1 << 13


def __getattr__(name: str):
    # The benchmark's tracer (perfbench/spans.py) times this module's pool by
    # this name.  It is resolved on first access (PEP 562), so a process that
    # opens no pool does not import it; `build_transversal` passes the global
    # only once the tracer has set it.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(eq=False)
class Transversal:
    """The right cosets of the distillation subgroup, each by its key.

    keys is a (C, n-1) uint16 array of coset keys in ascending (lexicographic)
    order.  A coset's shifts are completed from its key when its statistics
    are summed (`enumerate_stats`).  It is complete when it holds all
    `dn_index(n)` cosets.  samples_used counts the random matrices drawn to
    find the keys: 0 when they were enumerated.
    """

    n: int
    keys: np.ndarray
    samples_used: int

    @property
    def target_size(self) -> int:
        return dn_index(self.n)

    @property
    def complete(self) -> bool:
        return len(self) == self.target_size

    def __len__(self) -> int:
        return len(self.keys)


def representative_from_key(key: tuple, n: int) -> SymplecticMatrix:
    """Deterministic coset representative whose base preimage is span(key).

    The key rows (an isotropic subspace basis) are taken as the images of the
    standard base vectors under the inverse; partners and the remaining
    symplectic pair are completed greedily, always choosing the smallest
    vector satisfying the required inner products.  This is the one-key case
    of `representative_rows`.
    """
    if len(key) != n - 1:
        raise ValueError("key dimension must be n-1")
    (rows,) = representative_rows(np.array([key], dtype=np.uint64).reshape(1, n - 1), n)
    return SymplecticMatrix(n, rows.tolist())


def representative_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """Row masks of `representative_from_key` for each row of a (B, n-1) key
    array, in the keys' dtype, completed one chunk at a time."""
    out = np.empty((len(keys), 2 * n), keys.dtype)
    for lo in range(0, len(keys), CHUNK):
        # row i of the matrix is the inverse's column (i + n) mod 2n with its
        # halves swapped
        cols = _complete(keys[lo : lo + CHUNK], n)
        out[lo : lo + CHUNK] = swap_halves(np.roll(cols, -n, axis=0), n).T
    return out


def _complete(keys: np.ndarray, n: int) -> np.ndarray:
    """The inverse of each key's canonical representative, by its columns:
    a (2n, B) array u1, u2..un, w1, w2..wn for a (B, n-1) key array, in
    words of 3n bits: uint16 up to n = 5, else uint32.

    The inverse maps e_i -> u_i and e_{n+i} -> w_i, and w2..wn are the key
    rows.  Each u_i, i >= 2, is the least x with <x, w_j> = [i = j] and
    <x, u_j> = 0 for j < i; w1 is the least nonzero x orthogonal to all of
    these, and u1 the least x with <x, w1> = 1 orthogonal to the rest.  The
    constraint <x, v> of each column v found so far is the row swap(v) of one
    lowest-bit `Echelon`, which grows by one row per column, 2n - 1 rows in
    all.  Row bit 2n + j tags the row of key row j (j < n - 1) or of w1
    (j = n - 1): a reduced row holds the tag when it combines that row, so
    the tag is its right-hand side in the system of that column's partner,
    solved by `least(tag)`; w1 is the lowest free bit f plus `least(f)`.
    """
    nn = 2 * n
    # uint16 words complete n = 5 about 40% faster than uint32 words
    word = np.uint16 if 3 * n <= 16 else np.uint32
    ws = keys.T.astype(word)
    echelon = Echelon(nn - 1, len(keys), word, low_bit)
    for j, w in enumerate(ws):
        echelon.insert(swap_halves(w, n) | 1 << (nn + j))
    us = []
    for j in range(n - 1):
        us.append(echelon.least(1 << (nn + j)))
        echelon.insert(swap_halves(us[-1], n))
    free = low_bit(~np.bitwise_or.reduce(echelon.pivots, axis=0) & (1 << nn) - 1)
    w1 = free | echelon.least(free)
    echelon.insert(swap_halves(w1, n) | 1 << (nn + n - 1))
    return np.stack([echelon.least(1 << (nn + n - 1)), *us, w1, *ws])


def _sample_block(n: int, seed, block: int, size: int) -> np.ndarray:
    """The block's coset keys as big-endian bytes, which sort as the keys do;
    the byte view reads the masks in C order, whatever the keys' layout."""
    rng = np.random.default_rng([seed, block])
    keys = coset_keys(random_symplectic_rows(n, rng, size), n).astype(">u2", order="C")
    return np.ndarray(size, f"V{keys.itemsize * (n - 1)}", keys)


def build_transversal(
    n: int,
    seed: int = 0,
    jobs: int = 1,
    max_samples: int | None = None,
) -> Transversal:
    """Sample coset keys until the transversal is complete.

    The default sample budget is 50 * index * ln(index), far above the coupon
    collector expectation; exceeding it returns a partial transversal with
    complete=False rather than hanging.  Blocks of samples are seeded by
    (seed, block_index) and merged in block order, so the outcome does not
    depend on the worker count.
    """
    if not 1 <= n <= MAX_TRANSVERSAL_PAIRS:
        raise ValueError(f"transversal pair count must be in [1, {MAX_TRANSVERSAL_PAIRS}], got {n}")
    target = dn_index(n)
    if max_samples is None:
        max_samples = max(4 * SAMPLE_BLOCK, int(50 * target * math.log(max(target, 2))))
    keys: set = set()
    samples = 0
    nblocks = (max_samples + SAMPLE_BLOCK - 1) // SAMPLE_BLOCK
    # lazy: the default n=5 budget is half a million blocks
    calls = ((n, seed, b, min(SAMPLE_BLOCK, max_samples - b * SAMPLE_BLOCK)) for b in range(nblocks))
    pool = globals().get("ProcessPoolExecutor")  # None: ordered_calls imports its own
    for block_keys in ordered_calls(_sample_block, calls, jobs, pool):
        keys.update(block_keys.tolist())
        samples += len(block_keys)
        if len(keys) >= target:
            break

    count = len(keys)
    keys = b"".join(sorted(keys))  # the set goes before the key array is built
    keys = np.frombuffer(keys, ">u2").reshape(count, n - 1).astype(np.uint16)
    return Transversal(n, keys, samples)


def enumerate_coset_keys(n: int) -> np.ndarray:
    """Every coset key for n pairs, without sampling: a (dn_index(n), n-1)
    uint16 array in ascending order, the keys of `build_transversal(n)`.

    A key's rows are built from the lowest pivot up, for all keys at once.
    A row of pivot p is bit p plus any subset of the bits below p that are
    no lower row's pivot, so the basis is reduced by construction; it is
    kept when it is orthogonal to every lower row.  Each new row goes in
    front, and the rows of one pivot are sorted stably by their value: with
    the partial keys ascending, and pivots taken in increasing order, the
    keys come out ascending with no sort of whole keys.
    """
    if not 1 <= n <= MAX_TRANSVERSAL_PAIRS:
        raise ValueError(f"transversal pair count must be in [1, {MAX_TRANSVERSAL_PAIRS}], got {n}")
    keys = np.zeros((1, 0), np.uint16)
    pivots = np.zeros(1, np.uint16)  # the OR of each partial key's pivots
    for k in range(n - 1):  # rows so far
        swapped = swap_halves(keys, n)
        parts = []
        for p in range(k, n + k + 2):  # room for the n - 2 - k pivots above
            top = np.uint16(1 << p)
            below = np.flatnonzero(pivots < top)  # partial keys with every pivot below p
            free = (top - 1) & ~pivots[below]
            rows = np.full((len(below), 1), top)
            for _ in range(p - k):  # each subset of the free bits, in ascending order
                bit = low_bit(free)
                free ^= bit
                rows = np.concatenate([rows, rows | bit[:, None]], axis=1)
            odd = np.zeros(rows.shape, bool)
            for lower in swapped[below].T:  # each lower row, halves swapped
                odd |= (np.bitwise_count(rows & lower[:, None]) & 1).view(bool)
            part, row = np.nonzero(~odd)
            rows = rows[part, row]
            order = np.argsort(rows, kind="stable")
            part = below[part[order]]
            parts.append((np.c_[rows[order], keys[part]], pivots[part] | top))
        keys, pivots = (np.concatenate(column) for column in zip(*parts))
    return keys


def first_bad_record(keys: np.ndarray, n: int):
    """(index, problem) of the first record whose key is not a coset's.

    A key is sound when every mask has at most 2n bits, its rows are a
    reduced echelon basis (each nonzero, top-bit pivots strictly decreasing,
    each pivot set in its own row only), and they are pairwise orthogonal
    under the symplectic inner product.  Then K = span(key) is isotropic of
    dimension n-1, the base preimage of the coset whose representative
    `_complete` builds from the key.  A record failing several tests is
    reported by the first in that order.  Returns None when every record is
    sound.

    Each test runs on whole columns, in the masks' own dtype.
    """
    words = list(keys.T)
    swapped = [swap_halves(w, n) for w in words]
    pivots = [top_bit(w) for w in words]
    wide, reduced = np.zeros(len(keys), bool), np.ones(len(keys), bool)
    odd = np.zeros(len(keys), bool)  # <words[i], words[j]> = 1 for some i < j
    for j, w in enumerate(words):
        wide |= w >> n >> n != 0  # two steps: at n = 8 a 2n-bit shift spans a uint16
        if j:
            reduced &= pivots[j] < pivots[j - 1]
        reduced &= sum(v & pivots[j] != 0 for v in words) == 1
        for i in range(j):
            odd |= (np.bitwise_count(words[i] & swapped[j]) & 1).view(bool)
    problems = (wide, ~reduced, odd)
    bad = np.flatnonzero(np.logical_or.reduce(problems))
    if bad.size == 0:
        return None
    i = int(bad[0])
    return i, next(p for p, failed in zip(_PROBLEMS, problems) if failed[i])


_PROBLEMS = (
    "mask wider than 2n bits",
    "key is not a reduced echelon basis",
    "key is not isotropic",
)


def enumerate_stats(t: Transversal, state: BellDiagonalState) -> tuple:
    """Numeric statistics of every coset on the given state.

    Returns float64 columns (p_suc, f_num, fi_nums) in key order, fi_nums of
    shape (C, 3): the values `DistStats.from_coset_sums` gives, bit for bit,
    and so those of `numeric_stats` of the canonical representative, whose
    shifts `_complete` finds chunk by chunk.  Raises ValueError if the
    transversal is incomplete, or if a key fails `first_bad_record`.
    """
    if not t.complete:
        raise ValueError(f"transversal is incomplete ({len(t)}/{t.target_size} cosets)")
    if state.n != t.n:
        raise ValueError("state and transversal pair counts differ")
    n = t.n
    bad = first_bad_record(t.keys, n)
    if bad is not None:
        i, problem = bad
        raise ValueError(f"coset {t.keys[i].tolist()}: {problem}")
    sums = np.empty((len(t), 4))
    for lo in range(0, len(t), CHUNK):
        keys = t.keys[lo : lo + CHUNK]
        cols = _complete(keys, n)  # the shifts t1 = u1 and t2 = w1
        sums[lo : lo + CHUNK] = state.probs[preimage_cosets(keys, cols[0], cols[n])].sum(axis=-1)
    s0, s1, s2, s3 = sums.T
    p_suc = ((s0 + s1) + s2) + s3
    # the order of from_coset_sums: a left-to-right sum, and X/Y/Z sorted by
    # descending value with ties kept in place: a stable sort of -s, in place
    fis = np.negative(sums[:, 1:], out=sums[:, 1:])
    fis.sort(axis=1, kind="stable")
    return p_suc, s0, np.negative(fis, out=fis)


def pareto_envelope(p_suc: np.ndarray, f_out: np.ndarray) -> np.ndarray:
    """Mask of the points not strictly dominated in (p_suc, F_out).

    A point is dominated when another is at least as good in both coordinates
    and strictly better in one; exact ties are all kept.  Among the points of
    one p_suc only those of the group's best F_out can be kept, and only when
    that beats every F_out of a strictly larger p_suc (and -1).
    """
    order = np.argsort(p_suc)[::-1]  # by descending p_suc
    p, f = p_suc[order], f_out[order]
    first = np.ones(len(p), bool)  # the first point of each p_suc
    first[1:] = p[1:] != p[:-1]
    group = np.cumsum(first) - 1
    group_best = np.maximum.reduceat(f, np.flatnonzero(first))
    best_before = np.maximum.accumulate(np.r_[-1.0, group_best])[:-1]
    keep = np.empty(len(p), bool)
    keep[order] = (f == group_best[group]) & (f > best_before[group])
    return keep
