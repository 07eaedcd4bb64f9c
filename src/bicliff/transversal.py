"""Coupon-collector construction of a right-coset transversal.

Random symplectic matrices are sampled until every coset key has been seen.
The stored representative of each coset is not the sampled matrix but a
canonical one completed deterministically from the key alone, so the final
transversal is a pure function of n: identical for every seed, worker count
and sampling order.  Sampling only discovers which keys exist.

Sampling, completion and statistics each run on whole arrays of matrices:
a block of samples is one `random_symplectic_rows` call and one `coset_keys`
call, all keys are completed together, and `enumerate_stats` sums every
coset of every representative with one gather per chunk.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

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
from .groups import coset_keys, dn_index
from .states import BellDiagonalState, DistStats, preimage_index
# Imported but not called: the benchmark's tracer (perfbench/spans.py) looks
# these names up in this module.
from .gf2 import random_symplectic  # noqa: F401
from .groups import coset_key  # noqa: F401
from .states import numeric_stats  # noqa: F401

SAMPLE_BLOCK = 1024
# cosets per array step of completion and statistics, to bound memory at n=5
CHUNK = 1 << 15


@dataclass
class Transversal:
    """One canonical representative per right coset of the distillation subgroup."""

    n: int
    reps: dict
    complete: bool
    samples_used: int
    target_size: int = field(default=0)

    def __post_init__(self):
        if not self.target_size:
            self.target_size = dn_index(self.n)

    def __len__(self) -> int:
        return len(self.reps)


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
    """Row masks of `representative_from_key` for each row of a (B, n-1) key array."""
    out = np.empty((len(keys), 2 * n), np.uint64)
    for lo in range(0, len(keys), CHUNK):
        out[lo : lo + CHUNK] = _complete(keys[lo : lo + CHUNK], n)
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


def _sample_block(n: int, seed, block: int, size: int) -> set:
    rng = np.random.default_rng([seed, block])
    keys = coset_keys(random_symplectic_rows(n, rng, size), n)
    return set(map(tuple, keys.tolist()))


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
    target = dn_index(n)
    if max_samples is None:
        max_samples = max(4 * SAMPLE_BLOCK, int(50 * target * math.log(max(target, 2))))
    keys: set = set()
    samples = 0
    nblocks = (max_samples + SAMPLE_BLOCK - 1) // SAMPLE_BLOCK
    sizes = [
        min(SAMPLE_BLOCK, max_samples - b * SAMPLE_BLOCK) for b in range(nblocks)
    ]

    calls = [(n, seed, b, size) for b, size in enumerate(sizes)]
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for size, block_keys in zip(
            sizes, ordered_calls(_sample_block, calls, pool, jobs)
        ):
            keys |= block_keys
            samples += size
            if len(keys) >= target:
                break

    complete = len(keys) >= target
    keys = sorted(keys)
    rows = representative_rows(np.array(keys, dtype=np.uint64).reshape(len(keys), n - 1), n)
    reps = {k: SymplecticMatrix(n, r) for k, r in zip(keys, rows.tolist())}
    return Transversal(n, reps, complete, samples, target)


def enumerate_stats(t: Transversal, state: BellDiagonalState) -> list:
    """Numeric statistics of every coset representative on the given state.

    Raises ValueError if the transversal is incomplete, or if a
    representative is not symplectic or does not lie in the coset its key
    names.  The coset sums equal those of `numeric_stats`, bit for bit.
    """
    if not t.complete:
        raise ValueError("transversal is incomplete; raise the sample budget")
    if state.n != t.n:
        raise ValueError("state and transversal pair counts differ")
    n = t.n
    keys = sorted(t.reps)
    rows = np.array([t.reps[k].rows for k in keys], dtype=np.uint64).reshape(len(keys), 2 * n)
    sums = []
    for lo in range(0, len(keys), CHUNK):
        part = rows[lo : lo + CHUNK]
        bad = np.flatnonzero(~is_symplectic_rows(part, n))
        if bad.size:
            raise ValueError(f"coset {list(keys[lo + bad[0]])}: representative is not symplectic")
        for key, found in zip(keys[lo : lo + CHUNK], coset_keys(part, n).tolist()):
            if tuple(found) != key:
                raise ValueError(f"coset key {list(key)} does not match its representative's {found}")
        sums += state.probs[preimage_index(part, n)].sum(axis=-1).tolist()
    return [(key, DistStats.from_coset_sums(*s)) for key, s in zip(keys, sums)]


def pareto_envelope(entries) -> list:
    """Entries not strictly dominated in (p_suc, F_out), p_suc descending.

    A point is dominated when another is at least as good in both coordinates
    and strictly better in one; exact ties are all kept.
    """
    decorated = []
    for st in entries:
        p = st.p_suc
        f = st.f_num / p if p > 0 else 0.0
        decorated.append((p, f, st))
    decorated.sort(key=lambda t: (-t[0], -t[1]))
    kept = []
    best_f = -1.0  # best F_out among strictly larger p_suc
    i = 0
    while i < len(decorated):
        j = i
        while j < len(decorated) and decorated[j][0] == decorated[i][0]:
            j += 1
        group = decorated[i:j]
        group_best = group[0][1]
        for p, f, st in group:
            if f == group_best and f > best_f:
                kept.append(st)
        best_f = max(best_f, group_best)
        i = j
    return kept
