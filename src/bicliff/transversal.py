"""Right-coset transversals of the distillation subgroup, by their keys.

A coset's statistics depend only on its key K, the reduced basis of the
base preimage, and on two shifts t1, t2 that split K^perp / K into the
kept pair's I, X, Y and Z classes K, t1 + K, t1 + t2 + K and t2 + K.  The
shifts are read off a canonical representative completed deterministically
from the key alone, so a transversal is its sorted keys: a pure function of
n.  `enumerate_coset_keys` lists them directly, as the reduced bases of the
isotropic (n-1)-subspaces of F2^2n, and is the only source of keys:
`enumerate_stats` takes its keys from it, and the coupon collector
`build_transversal` marks each key it samples off the enumeration, raising
on one that is not there.  Its keys are the same for every seed, worker
count and sampling order.

Sampling, completion and statistics each run on whole arrays of matrices:
a block of samples is one `random_symplectic_rows` call (each matrix drawn
on the null basis of its constraints) and one `coset_keys` call, whose keys
are packed into one uint64 code each and looked up among the enumeration's
codes; `enumerate_stats` completes the keys one chunk at a time, in one
lowest-bit `gf2.Echelon` per chunk, and sums every coset of the chunk with
one gather.  Keys come from the same kernel with top-bit pivots
(`gf2.rref_rows`).  Keys are uint16 masks, so `representative_rows` takes
n <= 8; the completion's words hold 3n <= 24 bits.  Enumeration, sampling
and statistics stop at n = `MAX_EVAL_PAIRS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import ordered_calls
from .gf2 import Echelon, SymplecticMatrix, low_bit, random_symplectic_rows, swap_halves
from .groups import coset_keys
from .orders import MAX_EVAL_PAIRS, dn_index
from .states import BellDiagonalState, preimage_cosets
# Imported but not called: the benchmark's tracer (perfbench/spans.py) looks
# these names up in this module.
from .gf2 import random_symplectic  # noqa: F401
from .groups import coset_key  # noqa: F401
from .states import numeric_stats  # noqa: F401

SAMPLE_BLOCK = 1024
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
    """The right cosets of the distillation subgroup that sampling found.

    keys is a (C, n-1) uint16 array of the enumerated coset keys the samples
    reached, in ascending (lexicographic) order.  It is complete when it
    holds all `dn_index(n)` cosets.  samples_used counts the random matrices
    drawn to find the keys.
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


def _codes(keys: np.ndarray, n: int) -> np.ndarray:
    """Each key as one uint64, its first mask highest: a mask has at most 2n
    bits, so an n <= 5 key fits in 40 bits, and ascending keys give
    ascending codes."""
    codes = np.zeros(len(keys), np.uint64)
    for column in keys.T:
        codes = codes << np.uint64(2 * n) | column
    return codes


def _sample_block(n: int, seed, block: int, size: int) -> np.ndarray:
    """The codes of the block's sampled coset keys."""
    rng = np.random.default_rng([seed, block])
    return _codes(coset_keys(random_symplectic_rows(n, rng, size), n), n)


def build_transversal(
    n: int,
    seed: int = 0,
    jobs: int = 1,
    max_samples: int | None = None,
) -> Transversal:
    """Sample coset keys until every enumerated key has been found.

    The default sample budget is 50 * index * ln(index), far above the coupon
    collector expectation; exceeding it returns a partial transversal with
    complete=False rather than hanging.  Blocks of samples are seeded by
    (seed, block_index) and checked in block order, so the outcome does not
    depend on the worker count.  Raises ValueError on a sampled key that
    `enumerate_coset_keys(n)` does not hold.
    """
    enumeration = enumerate_coset_keys(n)
    codes = _codes(enumeration, n)
    if max_samples is None:
        max_samples = max(4 * SAMPLE_BLOCK, int(50 * len(codes) * math.log(max(len(codes), 2))))
    found = np.zeros(len(codes), bool)
    samples = 0
    nblocks = (max_samples + SAMPLE_BLOCK - 1) // SAMPLE_BLOCK
    # lazy: the default n=5 budget is half a million blocks
    calls = ((n, seed, b, min(SAMPLE_BLOCK, max_samples - b * SAMPLE_BLOCK)) for b in range(nblocks))
    pool = globals().get("ProcessPoolExecutor")  # None: ordered_calls imports its own
    for block in ordered_calls(_sample_block, calls, jobs, pool):
        block.sort()  # ascending lookups halve the search time in the 6 MB of n=5 codes
        at = np.minimum(np.searchsorted(codes, block), len(codes) - 1)
        stray = np.flatnonzero(codes[at] != block)
        if stray.size:
            code = int(block[stray[0]])
            key = [code >> 2 * n * j & (1 << 2 * n) - 1 for j in reversed(range(n - 1))]
            raise ValueError(f"sampled key {key} is not an enumerated coset key")
        found[at] = True
        samples += len(block)
        if found.all():
            break
    return Transversal(n, enumeration[found], samples)


def enumerate_coset_keys(n: int) -> np.ndarray:
    """Every coset key for n pairs, without sampling: a (dn_index(n), n-1)
    uint16 array in ascending order.

    A key's rows are built from the lowest pivot up, for all keys at once.
    A row of pivot p is bit p plus any subset of the bits below p that are
    no lower row's pivot, so the basis is reduced by construction; it is
    kept when it is orthogonal to every lower row.  Each new row goes in
    front, and the rows of one pivot are sorted stably by their value: with
    the partial keys ascending, and pivots taken in increasing order, the
    keys come out ascending with no sort of whole keys.
    """
    if not 1 <= n <= MAX_EVAL_PAIRS:
        raise ValueError(f"transversal pair count must be in [1, {MAX_EVAL_PAIRS}], got {n}")
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


def enumerate_stats(state: BellDiagonalState) -> tuple:
    """The coset keys of `enumerate_coset_keys(state.n)` and each coset's
    numeric statistics on the state, in key order: (keys, p_suc, f_num,
    fi_nums) as `_coset_stats` gives them."""
    keys = enumerate_coset_keys(state.n)
    return (keys, *_coset_stats(keys, state))


def _coset_stats(keys: np.ndarray, state: BellDiagonalState) -> tuple:
    """Float64 columns (p_suc, f_num, fi_nums) of the cosets of a (C, n-1)
    key array, fi_nums of shape (C, 3): the values `DistStats.from_coset_sums`
    gives, bit for bit, and so those of `numeric_stats` of the canonical
    representative, whose shifts `_complete` finds chunk by chunk."""
    n = state.n
    sums = np.empty((len(keys), 4))
    for lo in range(0, len(keys), CHUNK):
        chunk = keys[lo : lo + CHUNK]
        cols = _complete(chunk, n)  # the shifts t1 = u1 and t2 = w1
        sums[lo : lo + CHUNK] = state.probs[preimage_cosets(chunk, cols[0], cols[n])].sum(axis=-1)
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
