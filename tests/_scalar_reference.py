"""Scalar reference implementations of vectorised library code, and the
reference code that left the library.

Each function in the first part is the straightforward per-item loop that a
vectorised routine in `bicliff` replaced; tests check the two against each
other.  Among them are the dict-based GF(2) solver `solve_gf2` and the
one-matrix-at-a-time sampler `random_symplectic`, the draw-for-draw oracle of
`gf2.random_symplectic_rows` (and so of the library's `random_symplectic`,
its one-row case); the coset completion and coupon-collector references here
solve and draw through them, at scalar speed.  The second part holds code that no command, demo or benchmark runs but
that tests use as an oracle or a fixture: the per-vector matrix action and
inverse, scalar row reduction, a row-major batched elimination that shares
no code with `gf2.Echelon`, the least-solution solvers on it and the coset
completion that solves each system afresh with them (the oracle of
`transversal._complete`), the Werner symmetry generators, the case
enumeration over (a, b) pairs derived bit by bit (the oracle of the filtered
`werner.ab_pairs`), the Werner product state, and the DEJMPS step with its
concatenation plans.  The graph-class oracle relabels masks through byte
tables, not the edge-at-a-time map of `werner`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from bicliff.circuits import (
    CliffordCircuit,
    _all_pairs,
    _downward_pairs,
    _rebuild,
    depth,
    two_qubit_count,
)
from bicliff.dejmps import ROTATION_WORDS, _rotation_gates, step_table, tree_shapes
from bicliff.gf2 import (
    CNOT,
    SWAP,
    H,
    S,
    SymplecticMatrix,
    swap_halves,
    symplectic_inner,
)
from bicliff.groups import GeneratorSet
from bicliff.orders import check_pair_count, dn_index
from bicliff.ratpoly import RationalPolynomial
from bicliff.states import BellDiagonalState, DistStats, counts_key
from bicliff.werner import (
    WernerCase,
    _check_enum_n,
    _edge_list,
    graphs_up_to_iso,
)


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


def _candidates(shape, memo) -> dict:
    """Distinct reachable coefficient 4-tuples for one shape, with plans."""
    if shape in memo:
        return memo[shape]
    if shape is None:
        memo[shape] = {werner_leaf(): LEAF}
        return memo[shape]
    left, right = shape
    lc = _candidates(left, memo)
    rc = _candidates(right, memo)
    out: dict = {}
    orders = [(lc, rc)] if left == right else [(lc, rc), (rc, lc)]
    for keep_set, measure_set in orders:
        for uk, pk in keep_set.items():
            for um, pm in measure_set.items():
                for rot in ROTATION_WORDS:
                    key = tuple(_step_unnormalised(uk, um, step_table(rot)))
                    if key not in out:
                        out[key] = TreePlan(rot, pk, pm)
    memo[shape] = out
    return out


def concatenated_candidates(n: int) -> dict:
    """The concatenated family on Werner leaves by the tree recursion on exact 4-tuples."""
    memo: dict = {}
    out: dict = {}
    for shape in tree_shapes(n):
        for key, plan in _candidates(shape, memo).items():
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
        w = apply(m, v)
        if w & x_rest == 0:
            cosets[_KEPT_INDEX[(w & 1, (w >> n) & 1)]].append(v)
    return cosets


def preimage_cosets(m) -> list:
    """Preimages of the four base cosets, order I, X, Y, Z, in the order of
    `states.preimage_index`.

    Vector j of coset k is M^-1 applied to the base vector whose Z-bits on
    pairs 2..n are the bits of j, plus the kept pair's Pauli k.  The columns
    of M^-1 come from `inverse`, one XOR per vector.
    """
    n = m.n
    cols = columns(inverse(m))
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
    if inverse(m) @ m != SymplecticMatrix.identity(m.n):
        raise ValueError("matrix is not symplectic")
    sums = state.probs[np.array(preimage_cosets(m))].sum(axis=-1)
    return DistStats.from_coset_sums(*sums.tolist())


def coset_key(m) -> tuple:
    """`groups.coset_key`: the reduced basis of the base preimage, spanned by
    columns n+1..2n-1 of M^-1."""
    return rref(columns(inverse(m))[m.n + 1 :])


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


def byte_table_mask_map(m: int, perm) -> np.ndarray:
    """`werner._permuted_mask_map`: mask -> mask with vertices relabelled by
    perm, for all masks.

    Edge bits are moved a byte at a time, through a 256-entry table of the
    relabelled edges for each byte of the mask.
    """
    edges = _edge_list(m)
    index = {e: k for k, e in enumerate(edges)}
    target = [index[(min(perm[i], perm[j]), max(perm[i], perm[j]))] for i, j in edges]
    size = 1 << len(edges)
    arr = np.arange(size, dtype=np.int32)
    out = np.zeros(size, dtype=np.int32)
    byte = np.arange(256, dtype=np.int32)
    for lo in range(0, len(edges), 8):
        table = np.zeros(256, dtype=np.int32)
        for k, t in enumerate(target[lo : lo + 8]):
            table |= ((byte >> k) & 1) << t
        out |= table[(arr >> lo) & 255]
    return out


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
    maps = [byte_table_mask_map(m, p) for p in (swap, cycle, inv_cycle)]
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


def synth_block(n, seed, count, block, size, key):
    """One synthesis block at `count` two-qubit gates, one candidate at a
    time: (hits, best).  The random draws are the library's, in its order."""
    rng = np.random.default_rng([seed, count, block])
    down = _downward_pairs(n)
    pairs = _all_pairs(n)
    npairs = len(pairs)
    counts = np.full(size, count)
    lengths = rng.integers(np.maximum(0, counts - npairs), np.minimum(3 * n, counts) + 1)
    cnot_choices = rng.integers(0, len(down), size=int(lengths.sum()))
    order = rng.permuted(np.tile(np.arange(npairs), (size, 1)), axis=1)

    ident = [1 << i for i in range(2 * n)]
    hits = 0
    best = None
    pos = 0
    for idx in range(size):
        length = int(lengths[idx])
        chosen = cnot_choices[pos : pos + length]
        pos += length
        czm = sum(1 << int(p) for p in order[idx, : count - length])
        assert length + czm.bit_count() == count
        rows = ident.copy()
        for t in chosen:
            i, j = down[t]
            rows[j - 1] ^= rows[i - 1]
            rows[n + i - 1] ^= rows[n + j - 1]
        for p in range(npairs):
            if (czm >> p) & 1:
                i, j = pairs[p]
                rows[n + j - 1] ^= rows[i - 1]
                rows[n + i - 1] ^= rows[j - 1]
        for i in range(1, n):
            rows[i], rows[n + i] = rows[n + i], rows[i]

        if counts_key(werner_counts(SymplecticMatrix(n, rows))) != key:
            continue
        hits += 1
        circ = _rebuild(n, [down[t] for t in chosen], czm)
        assert two_qubit_count(circ) == count
        cand = (depth(circ), idx, circ)
        if best is None or cand[:2] < best[:2]:
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


def solve_gf2(constraints, nbits: int):
    """Solve a linear system over GF(2).

    Each constraint is a pair (mask, rhs) demanding parity(mask & x) == rhs.
    Returns (particular, nullspace_basis) or None if inconsistent.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in constraints:
        for p, (pm, pr) in list(pivots.items()):
            if (mask >> p) & 1:
                mask ^= pm
                rhs ^= pr
        if mask == 0:
            if rhs:
                return None
            continue
        p = mask.bit_length() - 1
        for q, (qm, qr) in list(pivots.items()):
            if (qm >> p) & 1:
                pivots[q] = (qm ^ mask, qr ^ rhs)
        pivots[p] = (mask, rhs)

    particular = 0
    for p, (_, rhs) in pivots.items():
        if rhs:
            particular |= 1 << p
    basis = []
    for f in range(nbits):
        if f in pivots:
            continue
        v = 1 << f
        for p, (mask, _) in pivots.items():
            if (mask >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return particular, basis


def random_symplectic(n: int, rng) -> SymplecticMatrix:
    """Uniformly random element of Sp(2n, F2).

    Images of the standard symplectic basis pairs (e_i, e_{n+i}) are chosen
    sequentially, each uniformly from the affine solution set of the inner
    products fixed so far.  Every step's choice count is independent of the
    history, so the sampled matrix is exactly uniform.
    """
    check_pair_count(n)
    nn = 2 * n
    fs: list[int] = []
    gs: list[int] = []
    for _ in range(n):
        cons = [(swap_halves(u, n), 0) for u in fs] + [
            (swap_halves(u, n), 0) for u in gs
        ]
        part, basis = solve_gf2(cons, nn)
        f = 0
        while f == 0:
            f = part ^ _random_combination(basis, rng)
        cons.append((swap_halves(f, n), 1))
        part, basis = solve_gf2(cons, nn)
        g = part ^ _random_combination(basis, rng)
        fs.append(f)
        gs.append(g)
    cols = fs + gs
    rows = [0] * nn
    for j, c in enumerate(cols):
        for i in range(nn):
            if (c >> i) & 1:
                rows[i] |= 1 << j
    return SymplecticMatrix(n, rows)


def _random_combination(basis, rng) -> int:
    if not basis:
        return 0
    coeff = int(rng.integers(0, 1 << len(basis)))
    v = 0
    for i, b in enumerate(basis):
        if (coeff >> i) & 1:
            v ^= b
    return v


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


def enumerated_coset_keys(n: int) -> np.ndarray:
    """Every coset key for n pairs, without sampling: (dn_index(n), n-1) uint64,
    ascending as `build_transversal(n).keys`.

    A key is the reduced basis of an isotropic (n-1)-subspace of F2^2n, rows
    in decreasing top-bit pivot order (`gf2.rref_rows`).  For each pivot set
    the rows are chosen from the lowest pivot up: a candidate is its pivot bit
    plus any subset of the non-pivot bits below it, so the basis is reduced
    by construction, and it is kept when it is orthogonal to every row chosen
    so far.
    """
    found = []
    for pivots in combinations(range(2 * n), n - 1):
        rows = np.zeros((1, 0), dtype=np.uint64)
        for p in pivots:
            cands = np.array([1 << p], dtype=np.uint64)
            for bit in set(range(p)) - set(pivots):
                cands = np.concatenate([cands, cands | np.uint64(1 << bit)])
            odd = np.bitwise_count(cands[:, None, None] & swap_halves(rows, n)) & 1
            fixed, cand = np.nonzero(~odd.any(axis=2).T)
            rows = np.concatenate([rows[fixed], cands[cand, None]], axis=1)
        found.append(rows[:, ::-1])
    keys = np.concatenate(found)
    return keys[np.lexsort(keys.T[::-1])] if n > 1 else keys  # n = 1: one empty key


def enumerate_stats(keys, reps, state) -> list:
    """(key, DistStats) of the cosets of a key array, one matrix at a time:
    reps holds the row masks of a representative of each coset, in key order."""
    entries = []
    for key, rows in zip(map(tuple, keys.tolist()), reps.tolist()):
        m = SymplecticMatrix(state.n, rows)
        st = numeric_stats(m, state)  # raises if m is not symplectic
        if coset_key(m) != key:
            raise ValueError(f"coset key {list(key)} does not match its representative's")
        entries.append((key, st))
    return entries


def coset_record_is_sound(key, n: int) -> bool:
    """Whether a transversal record's key masks are a coset's.

    Every mask must be a vector of F2^2n, the key its own reduced basis
    (`rref`) of n-1 rows, and the key rows pairwise orthogonal.
    """
    key = tuple(key)
    if any(v >> (2 * n) for v in key) or len(key) != n - 1 or rref(key) != key:
        return False
    return all(symplectic_inner(key[i], key[j], n) == 0 for j in range(len(key)) for i in range(j))


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


# ---------------------------------------------------------------------------
# Reference code that left the library
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def columns(m: SymplecticMatrix) -> tuple:
    """The 2n column masks of m, cached because `apply` XORs one per set bit."""
    nn = 2 * m.n
    cols = [0] * nn
    for i, row in enumerate(m.rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return tuple(cols)


def apply(m: SymplecticMatrix, v: int) -> int:
    """Matrix-vector product M @ v (v as column vector)."""
    cols = columns(m)
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out


def inverse(m: SymplecticMatrix) -> SymplecticMatrix:
    """Inverse via M^-1 = Omega M^T Omega, valid for symplectic M."""
    n = m.n
    nn = 2 * n
    cols = columns(m)
    return SymplecticMatrix(n, tuple(swap_halves(cols[(i + n) % nn], n) for i in range(nn)))


def rref(vectors) -> tuple:
    """Reduced row-echelon basis of the span, rows in decreasing pivot order.

    The pivot of a row is its highest set bit; every pivot bit is cleared in
    all other rows, which makes the result a canonical identifier of the
    subspace: two generating sets span the same subspace iff their reduced
    bases are identical tuples.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        for p, row in pivots.items():
            if (v >> p) & 1:
                v ^= row
        if v == 0:
            continue
        p = v.bit_length() - 1
        for q, row in list(pivots.items()):
            if (row >> p) & 1:
                pivots[q] = row ^ v
        pivots[p] = v
    return tuple(pivots[p] for p in sorted(pivots, reverse=True))


def _low_bit(v: np.ndarray) -> np.ndarray:
    """The lowest set bit of each entry, as a mask (0 for 0)."""
    return v & (~v + 1)


def _eliminate(rows, pivot_bit) -> tuple:
    """Gauss-Jordan elimination of a batch of systems: (basis, pivots), each
    of rows' shape (..., m), one system of m row masks per leading index.

    Row j of each system is reduced against the basis, its pivot_bit becomes
    a new pivot and is cleared from every other row; a dependent row leaves a
    zero row with pivot 0.  The library's `gf2.Echelon` holds the rows along
    the first axis instead; this row-major copy shares no code with it.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    basis = np.zeros_like(rows)
    pivots = np.zeros_like(rows)
    for j in range(rows.shape[-1]):
        v = rows[..., j]
        # each pivot is set in its own row only, so one XOR of the rows whose
        # pivots v holds clears them all
        v = v ^ np.bitwise_xor.reduce(np.where((v[..., None] & pivots) != 0, basis, 0), axis=-1)
        p = pivot_bit(v)
        basis ^= np.where((basis & p[..., None]) != 0, v[..., None], 0)
        basis[..., j] = v
        pivots[..., j] = p
    return basis, pivots


def least_solutions(cons, nbits: int) -> np.ndarray:
    """The least solution of each of many consistent systems over GF(2).

    cons is a (..., m) array holding each constraint parity(mask & x) == rhs
    as mask | rhs << nbits.  Eliminating on the lowest bit leaves every other
    bit of a row above its pivot, so the solution whose free bits are all 0
    is the least one: each pivot bit is then its row's rhs.
    """
    basis, pivots = _eliminate(cons, _low_bit)
    return np.bitwise_or.reduce(np.where((basis >> nbits) != 0, pivots, 0), axis=-1)


def least_null_vectors(masks, nbits: int) -> np.ndarray:
    """The least nonzero x with parity(mask & x) == 0 for every mask, per system.

    It is the null vector of the lowest free bit, found by the same lowest-bit
    elimination as `least_solutions`.  Each system must have a free bit.
    """
    basis, pivots = _eliminate(masks, _low_bit)
    free = _low_bit(((1 << nbits) - 1) & ~np.bitwise_or.reduce(pivots, axis=-1))
    hit = (basis & free[..., None]) != 0
    return free | np.bitwise_or.reduce(np.where(hit, pivots, 0), axis=-1)


def completed_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """Row masks of each key's canonical representative, as a uint64 array:
    every partner and the last pair solved as a fresh system of its own."""
    keys = np.asarray(keys, np.uint64)
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


def span(basis) -> list:
    """All 2^k elements of the span of k independent vectors."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out


def kn_generators(n: int) -> GeneratorSet:
    """Generating gates of the symmetry group of n-fold Werner inputs."""
    gates = [SWAP(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    gates += [H(i) for i in range(1, n + 1)]
    gates += [S(i) for i in range(1, n + 1)]
    return GeneratorSet(n, tuple(gates))


def ab_pairs_by_top_bit(m: int):
    """Yield (a, b) over F2^m with a <= b <= a^b, ascending as integer pairs:
    the order of `werner.ab_pairs`, derived instead of filtered.

    For a != 0 the condition b <= a^b holds exactly when b is 0 at the top
    set bit of a, and a <= b then forces a nonzero prefix above that bit.
    """
    for b in range(1 << m):
        yield 0, b
    for a in range(1, 1 << m):
        h = a.bit_length() - 1
        for hi in range(1, 1 << (m - h - 1)):
            base = hi << (h + 1)
            for lo in range(1 << h):
                yield a, base | lo


def enumerate_cases(n: int):
    """All cases for n pairs, (a, b) ascending then graph mask ascending."""
    _check_enum_n(n)
    graphs = graphs_up_to_iso(n - 1)
    for a, b in ab_pairs_by_top_bit(n - 1):
        for e in graphs:
            yield WernerCase(n, a, b, e)


def adjacency_rows(mask: int, m: int) -> list:
    """Adjacency matrix of an edge bitmask on m nodes as m bit-packed rows."""
    rows = [0] * m
    for k, (i, j) in enumerate(_edge_list(m)):
        if (mask >> k) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def representative(case: WernerCase) -> SymplecticMatrix:
    """The canonical-form representative of a case, one row mask at a time.

    Upper-left block [[1, 0], [a, I]], upper-right [[0, b^T], [b, E + b a^T]],
    lower-left zero, lower-right the transpose of the upper-left.
    """
    n, a, b = case.n, case.a, case.b
    erows = adjacency_rows(case.e, n - 1)
    rows = [1 | (b << (n + 1))]
    for k in range(1, n):
        ak, bk = (a >> (k - 1)) & 1, (b >> (k - 1)) & 1
        rows.append(ak | (1 << k) | (bk << n) | ((erows[k - 1] ^ (a if bk else 0)) << (n + 1)))
    rows.append((1 | (a << 1)) << n)
    rows += [1 << (n + k) for k in range(1, n)]
    return SymplecticMatrix(n, rows)


def werner_state(n: int, fidelity: float) -> BellDiagonalState:
    """n identical Werner pairs (F, e, e, e), e = (1 - F)/3."""
    e = (1.0 - fidelity) / 3.0
    return BellDiagonalState.from_pairs([(fidelity, e, e, e)] * n)


# The rotation of the original protocol exchanges the Y and Z labels.
DEFAULT_ROTATION = "HSH"


def _step_unnormalised(ua, ub, table):
    return [sum(ua[i] * ub[j] for i, j in entry) for entry in table]


def dejmps_step(sa, sb, rotation: str = DEFAULT_ROTATION):
    """One two-to-one step on normalised coefficient 4-vectors.

    Returns (success probability, renormalised output coefficients).
    """
    out = _step_unnormalised(sa, sb, step_table(rotation))
    p_suc = sum(out)
    if p_suc == 0:
        return 0.0, (0.0, 0.0, 0.0, 0.0)
    return p_suc, tuple(v / p_suc for v in out)


@dataclass(frozen=True)
class TreePlan:
    """A concatenation plan: rotation label at each node, leaves are pairs."""

    rotation: str | None = None  # None marks a leaf
    keep: object = None
    measure: object = None

    @property
    def is_leaf(self) -> bool:
        return self.rotation is None

    def leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.keep.leaves() + self.measure.leaves()


LEAF = TreePlan()


def plan_to_circuit(plan: TreePlan, n: int) -> CliffordCircuit:
    """The n-qubit bilocal circuit realising a plan, kept pair on qubit 1.

    Leaves are numbered left to right; each node rotates the two subtree
    representatives and entangles them with a CNOT from kept to measured.
    """
    if plan.leaves() != n:
        raise ValueError("plan leaf count differs from n")
    gates: list = []
    counter = [0]

    def walk(p: TreePlan) -> int:
        if p.is_leaf:
            counter[0] += 1
            return counter[0]
        qk = walk(p.keep)
        qm = walk(p.measure)
        gates.extend(_rotation_gates(p.rotation, qk))
        gates.extend(_rotation_gates(p.rotation, qm))
        gates.append(CNOT(qk, qm))
        return qk

    root = walk(plan)
    assert root == 1 and counter[0] == n
    return CliffordCircuit(n, tuple(gates))
