"""Scalar reference implementations of vectorised library code.

Each function here is the straightforward per-item loop that a vectorised
routine in `bicliff` replaced; tests check the two against each other.
"""

import numpy as np

from bicliff.circuits import _all_pairs, _downward_pairs, _rebuild, depth, two_qubit_count
from bicliff.dejmps import (
    LEAF,
    ROTATION_WORDS,
    TreePlan,
    _step_unnormalised,
    step_table,
    tree_shapes,
    werner_leaf,
)
from bicliff.gf2 import SymplecticMatrix, random_symplectic, rref, solve_gf2, swap_halves
from bicliff.groups import coset_key, dn_index
from bicliff.states import coset_histograms, counts_key


def _candidates(shape, leaf, rotations, memo) -> dict:
    """Distinct reachable coefficient 4-tuples for one shape, with plans."""
    if shape in memo:
        return memo[shape]
    if shape is None:
        memo[shape] = {leaf: LEAF}
        return memo[shape]
    left, right = shape
    lc = _candidates(left, leaf, rotations, memo)
    rc = _candidates(right, leaf, rotations, memo)
    out: dict = {}
    orders = [(lc, rc)] if left == right else [(lc, rc), (rc, lc)]
    for keep_set, measure_set in orders:
        for uk, pk in keep_set.items():
            for um, pm in measure_set.items():
                for rot in rotations:
                    key = tuple(_step_unnormalised(uk, um, step_table(rot)))
                    if key not in out:
                        out[key] = TreePlan(rot, pk, pm)
    memo[shape] = out
    return out


def concatenated_candidates(n: int, leaf=None, rotations=None) -> dict:
    """The concatenated family by the tree recursion on exact 4-tuples."""
    if leaf is None:
        leaf = werner_leaf()
    rotations = tuple(ROTATION_WORDS) if rotations is None else tuple(rotations)
    memo: dict = {}
    out: dict = {}
    for shape in tree_shapes(n):
        for key, plan in _candidates(shape, leaf, rotations, memo).items():
            out.setdefault(key, plan)
    return out


def synth_block(n, seed, block, size, key, allow_swap):
    """One synthesis block, one candidate at a time: (hits, best)."""
    rng = np.random.default_rng([seed, block])
    down = _downward_pairs(n)
    pairs = _all_pairs(n)
    npairs = len(pairs)
    lengths = rng.integers(0, 3 * n + 1, size=size)
    cnot_choices = rng.integers(0, len(down), size=int(lengths.sum()))
    cz_masks = rng.integers(0, 1 << npairs, size=size, dtype=np.uint64)
    swaps = rng.integers(0, n, size=size) if allow_swap else np.zeros(size, np.int64)

    ident = [1 << i for i in range(2 * n)]
    hits = 0
    best = None
    pos = 0
    for idx in range(size):
        length = int(lengths[idx])
        chosen = cnot_choices[pos : pos + length]
        pos += length
        rows = ident.copy()
        for t in chosen:
            i, j = down[t]
            rows[j - 1] ^= rows[i - 1]
            rows[n + i - 1] ^= rows[n + j - 1]
        czm = int(cz_masks[idx])
        for p in range(npairs):
            if (czm >> p) & 1:
                i, j = pairs[p]
                rows[n + j - 1] ^= rows[i - 1]
                rows[n + i - 1] ^= rows[j - 1]
        for i in range(1, n):
            rows[i], rows[n + i] = rows[n + i], rows[i]
        sw = int(swaps[idx])
        if sw:  # exchange qubit 1 with qubit sw+1 after the Hadamard layer
            rows[0], rows[sw] = rows[sw], rows[0]
            rows[n], rows[n + sw] = rows[n + sw], rows[n]

        if counts_key(coset_histograms(rows, n)) != key:
            continue
        hits += 1
        circ = _rebuild(n, [down[t] for t in chosen], czm, sw)
        cand = (two_qubit_count(circ), depth(circ), idx, circ)
        if best is None or cand[:3] < best[:3]:
            best = cand
    return hits, best


def poly_on_grid(poly, grid):
    """Float Horner evaluation of a RationalPolynomial at every grid point."""
    out = np.zeros_like(grid)
    for c in reversed(poly.coeffs):
        out = out * grid + float(c)
    return out


def min_affine(particular: int, basis) -> int:
    """Smallest integer in the affine space particular + span(basis)."""
    for b in rref(basis):
        particular = min(particular, particular ^ b)
    return particular


def representative_from_key(key: tuple, n: int) -> SymplecticMatrix:
    """The canonical coset representative, completed one solve_gf2 at a time."""
    nn = 2 * n
    ws = list(key)  # images of e_{n+2}..e_{2n}

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

    cols = [u1] + us + [w1] + ws
    return SymplecticMatrix(n, (swap_halves(cols[(i + n) % nn], n) for i in range(nn)))


def sample_block(n: int, seed, block: int, size: int) -> set:
    """One block of the coupon collector, one matrix at a time."""
    rng = np.random.default_rng([seed, block])
    return {coset_key(random_symplectic(n, rng)) for _ in range(size)}


def transversal_keys(n: int, seed, max_samples: int, block_size: int = 1024) -> tuple:
    """(keys, samples) of the coupon collector, drawn block by block."""
    keys: set = set()
    samples = 0
    for block, start in enumerate(range(0, max_samples, block_size)):
        size = min(block_size, max_samples - start)
        keys |= sample_block(n, seed, block, size)
        samples += size
        if len(keys) >= dn_index(n):
            break
    return keys, samples
