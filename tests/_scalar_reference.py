"""Scalar reference implementations of vectorised library code.

Each function here is the straightforward per-item loop that a vectorised
routine in `bicliff` replaced; tests check the two against each other.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np

from bicliff.circuits import _all_pairs, _downward_pairs, _rebuild, depth, two_qubit_count
from bicliff.dejmps import (
    LEAF,
    ROTATION_WORDS,
    TreePlan,
    _step_unnormalised,
    step_table,
    tree_shapes,
)
from bicliff.gf2 import SymplecticMatrix, random_symplectic, rref, solve_gf2, swap_halves
from bicliff.groups import dn_index
from bicliff.ratpoly import RationalPolynomial
from bicliff.states import DistStats, counts_key
from bicliff.werner import _edge_list, _permuted_mask_map


def werner_leaf() -> tuple:
    """Unnormalised Werner coefficients (F, e, e, e), e = (1-F)/3, as exact polynomials."""
    f = RationalPolynomial.variable()
    e = RationalPolynomial((Fraction(1, 3), Fraction(-1, 3)))
    return (f, e, e, e)


@lru_cache(maxsize=None)
def werner_term_basis(n: int) -> tuple:
    """Polynomials F^w * ((1-F)/3)^(n-w) for w = 0..n, as Fraction products."""
    f, e, _, _ = werner_leaf()
    out = []
    for w in range(n + 1):
        p = RationalPolynomial.constant(1)
        for _ in range(w):
            p = p * f
        for _ in range(n - w):
            p = p * e
        out.append(p)
    return tuple(out)


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


# brute-force Bell index of the kept pair's (x, z) bits: I, X, Y, Z
_KEPT_INDEX = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}


def preimage_oracle(m, n):
    """Preimages of the four base cosets, order I, X, Y, Z, by brute force.

    Every v in F2^(2n) is mapped by m; an image with no X-part on pairs
    2..n lies in the pillars, and its kept-pair bits pick the coset.
    """
    x_rest = ((1 << n) - 1) ^ 1
    cosets = ([], [], [], [])
    for v in range(1 << (2 * n)):
        w = m.apply(v)
        if w & x_rest == 0:
            cosets[_KEPT_INDEX[(w & 1, (w >> n) & 1)]].append(v)
    return cosets


def preimage_cosets(m) -> list:
    """Preimages of the four base cosets, order I, X, Y, Z, in the order of
    `states.preimage_index`.

    Vector j of coset k is M^-1 applied to the base vector whose Z-bits on
    pairs 2..n are the bits of j, plus the kept pair's Pauli k.  The columns
    of M^-1 come from `SymplecticMatrix.inverse`, one XOR per vector.
    """
    n = m.n
    cols = m.inverse().cols
    base = [0]
    for col in cols[n + 1 : 2 * n]:
        base += [v ^ col for v in base]
    x, z = cols[0], cols[n]
    return [[v ^ s for v in base] for s in (0, x, x ^ z, z)]


def numeric_stats(m, state):
    """`states.numeric_stats` of one matrix, from `preimage_cosets`.

    Each coset's probabilities are summed as one numpy row, as the batched
    forms sum them, so the results agree bit for bit.
    """
    if m.inverse() @ m != SymplecticMatrix.identity(m.n):
        raise ValueError("matrix is not symplectic")
    sums = state.probs[np.array(preimage_cosets(m))].sum(axis=-1)
    return DistStats.from_coset_sums(*sums.tolist())


def coset_key(m) -> tuple:
    """`groups.coset_key`: the reduced basis of the base preimage, spanned by
    columns n+1..2n-1 of M^-1."""
    return rref(m.inverse().cols[m.n + 1 :])


@lru_cache(maxsize=None)
def _identity_weights(n: int) -> list:
    mask = (1 << n) - 1
    return [n - ((v | v >> n) & mask).bit_count() for v in range(1 << (2 * n))]


def werner_counts(m) -> tuple:
    """`states.werner_counts`: identity-weight histograms of `preimage_cosets`."""
    weights = _identity_weights(m.n)
    out = []
    for coset in preimage_cosets(m):
        hist = [0] * (m.n + 1)
        for v in coset:
            hist[weights[v]] += 1
        out.append(tuple(hist))
    return tuple(out)


def propagated_graph_classes(m: int) -> tuple:
    """Minimum edge mask of every graph class on m nodes, by min-label
    propagation over all 2^(m(m-1)/2) labelled graphs.

    Each mask pulls the smallest label from its images under a transposition,
    a full cycle and the inverse cycle, then jumps to its label's label, until
    nothing changes; what is left is the orbit minimum of every mask.
    """
    if m <= 1:
        return (0,)
    swap = list(range(m))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % m for i in range(m)]
    inv_cycle = [(i - 1) % m for i in range(m)]
    maps = [_permuted_mask_map(m, p) for p in (swap, cycle, inv_cycle)]
    rep = np.arange(1 << len(_edge_list(m)), dtype=np.int32)
    while True:
        nxt = rep
        for g in maps:
            nxt = np.minimum(nxt, rep[g])
        nxt = np.minimum(nxt, rep[nxt])
        if np.array_equal(nxt, rep):
            break
        rep = nxt
    return tuple(int(v) for v in np.unique(rep))


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

        if counts_key(werner_counts(SymplecticMatrix(n, rows))) != key:
            continue
        hits += 1
        circ = _rebuild(n, [down[t] for t in chosen], czm, sw)
        cand = (two_qubit_count(circ), depth(circ), idx, circ)
        if best is None or cand[:3] < best[:3]:
            best = cand
    return hits, best


def block_histograms(rows, n: int) -> np.ndarray:
    """coset_histograms of every row set of a block, shape (size, 4, n + 1).

    The preimage vectors are formed without swap_halves: the Pauli weight,
    popcount((w | w >> n) & (2^n - 1)), is the same for w and swap_halves(w).
    """
    size = len(rows)
    rows = rows.astype(np.uint32 if n <= 16 else np.uint64)
    v0 = np.zeros((size, 1), dtype=rows.dtype)
    for k in range(1, n):
        v0 = np.concatenate([v0, v0 ^ rows[:, k, None]], axis=1)
    t1, t2 = rows[:, n], rows[:, 0]
    shifts = np.stack([np.zeros_like(t1), t1, t1 ^ t2, t2], axis=1)
    w = v0[:, None, :] ^ shifts[:, :, None]
    w |= w >> n
    w &= (1 << n) - 1
    pauli_weight = np.bitwise_count(w)
    return np.stack(
        [np.count_nonzero(pauli_weight == n - i, axis=2) for i in range(n + 1)], axis=2
    )


def key_matches(hist, key) -> np.ndarray:
    """Which histograms of a block have the given counts_key, shape (size,).

    The base histogram must be equal; the other three must equal the key's
    three as a multiset, that is under one of the six matchings.
    """
    base, rest = np.array(key[0]), np.array(key[1])
    eq = (hist[:, 1:, None, :] == rest[None, None, :, :]).all(axis=3)
    shuffled = np.zeros(len(hist), dtype=bool)
    for perm in permutations(range(3)):
        shuffled |= eq[:, 0, perm[0]] & eq[:, 1, perm[1]] & eq[:, 2, perm[2]]
    return (hist[:, 0] == base).all(axis=1) & shuffled


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


def parse_stream(stream, n: int, count: int):
    """(coefficients, draws used) of `count` matrices read off a uint32 stream.

    Each matrix starts where the previous one ended and takes the top 2n - s
    bits of one value for its s-th draw, repeating an f draw (even s) while
    it is zero.  None if the stream ends first.
    """
    stream = [int(x) for x in stream]
    coeffs = []
    at = 0
    for _ in range(count):
        row = []
        for s in range(2 * n):
            while True:
                if at == len(stream):
                    return None
                v = stream[at] >> (32 - (2 * n - s))
                at += 1
                if v or s % 2:
                    break
            row.append(v)
        coeffs.append(row)
    return coeffs, at


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


def enumerate_stats(t, state) -> list:
    """(key, DistStats) of every coset representative, one matrix at a time."""
    if not t.complete:
        raise ValueError("transversal is incomplete")
    entries = []
    for key, rows in zip(map(tuple, t.keys.tolist()), t.rows.tolist()):
        m = SymplecticMatrix(t.n, rows)
        st = numeric_stats(m, state)  # raises if m is not symplectic
        if coset_key(m) != key:
            raise ValueError(f"coset key {list(key)} does not match its representative's")
        entries.append((key, st))
    return entries


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
