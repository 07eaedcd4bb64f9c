"""Coupon-collector construction of a right-coset transversal.

Random symplectic matrices are sampled until every coset key has been seen.
The stored representative of each coset is not the sampled matrix but a
canonical one completed deterministically from the key alone, so the final
transversal is a pure function of n: identical for every seed, worker count
and sampling order.  Sampling only discovers which keys exist.
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
    min_affine,
    random_symplectic,
    rref,
    solve_gf2,
    swap_halves,
)
from .groups import coset_key, dn_index
from .states import BellDiagonalState, numeric_stats

SAMPLE_BLOCK = 1024


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
    vector satisfying the required inner products.
    """
    nn = 2 * n
    ws = list(key)  # images of e_{n+2}..e_{2n}
    if len(ws) != n - 1:
        raise ValueError("key dimension must be n-1")

    def inner_constraints(vs, one_at=None):
        # parity(x & swap(v)) equals 1 only against the chosen partner
        return [
            (swap_halves(v, n), 1 if i == one_at else 0) for i, v in enumerate(vs)
        ]

    us: list = []
    for idx in range(len(ws)):
        cons = inner_constraints(ws, idx) + inner_constraints(us)
        part, basis = solve_gf2(cons, nn)
        us.append(min_affine(part, basis))

    cons = inner_constraints(ws) + inner_constraints(us)
    _, basis = solve_gf2(cons, nn)
    w1 = rref(basis)[-1]  # smallest nonzero solution

    cons = (
        [(swap_halves(w1, n), 1)]
        + inner_constraints(ws)
        + inner_constraints(us)
    )
    part, basis = solve_gf2(cons, nn)
    u1 = min_affine(part, basis)

    # the inverse maps e_i -> u_i and e_{n+i} -> w_i; row i of the matrix is
    # the inverse's column (i + n) mod 2n with its halves swapped
    cols = [u1] + us + [w1] + ws
    return SymplecticMatrix(n, (swap_halves(cols[(i + n) % nn], n) for i in range(nn)))


def _sample_block(n: int, seed, block: int, size: int) -> set:
    rng = np.random.default_rng([seed, block])
    return {coset_key(random_symplectic(n, rng)) for _ in range(size)}


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
    reps = {k: representative_from_key(k, n) for k in sorted(keys)}
    return Transversal(n, reps, complete, samples, target)


def enumerate_stats(t: Transversal, state: BellDiagonalState) -> list:
    """Numeric statistics of every coset representative on the given state."""
    if not t.complete:
        raise ValueError("transversal is incomplete; raise the sample budget")
    if state.n != t.n:
        raise ValueError("state and transversal pair counts differ")
    return [(key, numeric_stats(rep, state)) for key, rep in sorted(t.reps.items())]


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
