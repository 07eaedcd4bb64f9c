"""Coupon-collector construction of a right-coset transversal.

Random symplectic matrices are sampled until every coset key has been seen.
The stored representative of each coset is not the sampled matrix but a
canonical one completed deterministically from the key alone, so the final
transversal is a pure function of n: identical for every seed, worker count
and sampling order.  Sampling only discovers which keys exist.

Sampling, completion and statistics each run on whole arrays of matrices:
a block of samples is one `random_symplectic_rows` call (each matrix drawn
on the null basis of its constraints) and one `coset_keys` call, whose keys
merge into one set as big-endian byte strings; all keys are completed
together, and `enumerate_stats` sums every coset of every representative
with one gather per chunk.  Keys and rows are uint16 masks, as in the cache,
so n <= 8; a kernel that needs more bits widens one chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import ordered_calls
from .gf2 import (
    SymplecticMatrix,
    is_symplectic_rows,
    least_null_vectors,
    least_solutions,
    random_symplectic_rows,
    swap_halves,
)
from .groups import coset_keys
from .orders import dn_index
from .states import BellDiagonalState, preimage_index
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
    """One canonical representative per right coset of the distillation subgroup.

    keys is a (C, n-1) uint16 array of coset keys in ascending (lexicographic)
    order and rows the matching (C, 2n) uint16 array of representative row
    masks.  It is complete when it holds all `dn_index(n)` cosets.
    """

    n: int
    keys: np.ndarray
    rows: np.ndarray
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
    """Row masks of `representative_from_key` for each row of a (B, n-1) key array,
    in the keys' dtype; each chunk is completed in uint64, as a constraint holds 2n + 1 bits."""
    out = np.empty((len(keys), 2 * n), keys.dtype)
    for lo in range(0, len(keys), CHUNK):
        out[lo : lo + CHUNK] = _complete(keys[lo : lo + CHUNK].astype(np.uint64), n)
    return out


def _complete(keys: np.ndarray, n: int) -> np.ndarray:
    nn = 2 * n
    rhs = np.uint64(1 << nn)  # constraints are held as mask | rhs << 2n
    # the keys are the images ws of e_{n+2}..e_{2n}; parity(x & swap(v)) is
    # the inner product of x with v
    inner = swap_halves(keys, n)
    us = []
    for idx in range(n - 1):
        # u_idx pairs with w_idx only, and is orthogonal to the u chosen so far
        cons = inner.copy()
        cons[:, idx] |= rhs
        us.append(least_solutions(cons, nn))
        inner = np.concatenate([inner, swap_halves(us[-1], n)[:, None]], axis=1)
    w1 = least_null_vectors(inner, nn)
    u1 = least_solutions(np.concatenate([(swap_halves(w1, n) | rhs)[:, None], inner], axis=1), nn)
    # the inverse maps e_i -> u_i and e_{n+i} -> w_i; row i of the matrix is
    # the inverse's column (i + n) mod 2n with its halves swapped
    cols = np.stack([u1, *us, w1, *keys.T], axis=1)
    return swap_halves(np.roll(cols, -n, axis=1), n)


def _sample_block(n: int, seed, block: int, size: int) -> np.ndarray:
    """The block's coset keys as big-endian bytes, which sort as the keys do."""
    rng = np.random.default_rng([seed, block])
    keys = coset_keys(random_symplectic_rows(n, rng, size), n).astype(">u2")
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
    return Transversal(n, keys, representative_rows(keys, n), samples)


def first_bad_record(keys: np.ndarray, rows: np.ndarray, n: int):
    """(index, problem) of the first record that is not a sound representative.

    A record is sound when its rows are symplectic and its key equals their
    `coset_keys`; a record failing both is reported as not symplectic.
    Returns None when every record is sound.
    """
    for lo in range(0, len(keys), CHUNK):
        part = rows[lo : lo + CHUNK]
        symplectic = is_symplectic_rows(part, n)
        in_coset = (coset_keys(part, n) == keys[lo : lo + CHUNK]).all(axis=1)
        bad = np.flatnonzero(~(symplectic & in_coset))
        if bad.size:
            i = int(bad[0])
            problem = "coset key mismatch" if symplectic[i] else "representative is not symplectic"
            return lo + i, problem
    return None


def enumerate_stats(t: Transversal, state: BellDiagonalState) -> tuple:
    """Numeric statistics of every coset representative on the given state.

    Returns float64 columns (p_suc, f_num, fi_nums) in key order, fi_nums of
    shape (C, 3): the values `DistStats.from_coset_sums` gives, bit for bit,
    and so those of `numeric_stats`.  Raises ValueError if the transversal is
    incomplete, or if a representative is not symplectic or does not lie in
    the coset its key names.
    """
    if not t.complete:
        raise ValueError(f"transversal is incomplete ({len(t)}/{t.target_size} cosets)")
    if state.n != t.n:
        raise ValueError("state and transversal pair counts differ")
    n = t.n
    bad = first_bad_record(t.keys, t.rows, n)
    if bad is not None:
        i, problem = bad
        raise ValueError(f"coset {t.keys[i].tolist()}: {problem}")
    sums = np.empty((len(t), 4))
    for lo in range(0, len(t), CHUNK):
        sums[lo : lo + CHUNK] = state.probs[preimage_index(t.rows[lo : lo + CHUNK], n)].sum(axis=-1)
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
