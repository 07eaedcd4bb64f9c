"""Bell-diagonal states, base/pillars subspaces, and distillation statistics.

A protocol keeps pair 1 unmeasured and succeeds when every other pair's
measurement outcomes are correlated, i.e. the permuted state's string lies in
the pillars.  The statistics split the pillar mass into the base coset (the
kept pair's identity coefficient) and its three shifts by e_1, e_1+e_{n+1}
and e_{n+1} (the X, Y and Z coefficients of the kept pair).

Every statistic is read off one object, computed by `preimage_index` for
any stack of protocol matrices: the preimage of the base under the protocol
matrix M, plus the three shifts that carry it onto the preimages of the
other cosets.  It needs no inverse, because for symplectic M the inverse is
Omega M^T Omega, whose column j is row (j + n) mod 2n of M with its X- and
Z-halves swapped.  The numeric sums, the Werner histograms, the DEJMPS step
table and the Pauli weights of circuit synthesis all come from it; each
per-matrix statistic is the one-row case of its batched form.

Statistics come in two interchangeable modes: floating point for arbitrary
Bell-diagonal inputs, and exact rational polynomials in the input fidelity F
for n-fold Werner inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gf2 import SymplecticMatrix, is_symplectic, swap_halves
from .ratpoly import RationalPolynomial

PROB_TOL = 1e-12

# Bell coefficients are ordered (I, X, Y, Z); a pair's bits (x, z) select the
# entry via x + 2z remapped so that (0,1) is Z and (1,1) is Y.
_BITS_TO_PAULI = (0, 1, 3, 2)


def pauli_index(x: int, z: int) -> int:
    return _BITS_TO_PAULI[(x & 1) | ((z & 1) << 1)]


def vector_paulis(v: int, n: int) -> tuple:
    """Per-pair Bell indices (I=0, X=1, Y=2, Z=3) of a packed vector."""
    return tuple(pauli_index(v >> i, v >> (n + i)) for i in range(n))


def base(n: int) -> tuple:
    """Strings acting as I on pair 1 and as I or Z on every other pair.

    A subspace of dimension n-1, returned as sorted packed vectors.
    """
    return tuple(s << (n + 1) for s in range(1 << (n - 1)))


def pillars(n: int) -> tuple:
    """Strings acting arbitrarily on pair 1 and as I or Z elsewhere.

    A subspace of dimension n+1 containing the base; equals the symplectic
    complement of the base.
    """
    out = []
    for z in range(1 << n):
        for x in (0, 1):
            out.append(x | (z << n))
    return tuple(sorted(out))


@dataclass(frozen=True)
class BellDiagonalState:
    """n Bell-diagonal pairs described by 4^n probabilities.

    probs[v] is the probability of the Pauli string packed as v.
    """

    n: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (4**self.n,):
            raise ValueError(f"expected {4 ** self.n} probabilities")
        if not np.isfinite(probs).all():
            raise ValueError("non-finite probability entry")
        if probs.min() < -PROB_TOL:
            raise ValueError("negative probability entry")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError("probabilities do not sum to 1")

    @classmethod
    def from_pairs(cls, pairs) -> "BellDiagonalState":
        """Product state from per-pair (pI, pX, pY, pZ) coefficient rows."""
        n = len(pairs)
        v = np.arange(4**n, dtype=np.int64)
        lut = np.array(_BITS_TO_PAULI, dtype=np.int64)
        probs = np.ones(4**n)
        for i, pair in enumerate(pairs):
            pair = np.asarray(pair, dtype=float)
            if pair.shape != (4,):
                raise ValueError(f"pair {i} needs 4 coefficients (pI, pX, pY, pZ)")
            code = ((v >> i) & 1) | (((v >> (n + i)) & 1) << 1)
            probs *= pair[lut[code]]
        return cls(n, probs)

    @classmethod
    def werner(cls, n: int, fidelity: float) -> "BellDiagonalState":
        e = (1.0 - fidelity) / 3.0
        return cls.from_pairs([(fidelity, e, e, e)] * n)

    def renormalized(self) -> "BellDiagonalState":
        return BellDiagonalState(self.n, self.probs / self.probs.sum())


def _stat_key(x):
    if isinstance(x, RationalPolynomial):
        return x.sort_key()
    return -x


@dataclass(frozen=True)
class DistStats:
    """Distillation statistics of one protocol.

    p_suc is the success probability; f_num is p_suc * F_out; fi_nums are the
    three unnormalised X/Y/Z coefficients of the kept pair, stored in a fixed
    canonical order (polynomials: coefficient-lexicographic; numbers:
    descending) because local operations can permute them freely.
    Entries are either all floats or all RationalPolynomial.
    """

    p_suc: object
    f_num: object
    fi_nums: tuple

    @classmethod
    def from_coset_sums(cls, s0, s1, s2, s3) -> "DistStats":
        fis = tuple(sorted((s1, s2, s3), key=_stat_key))
        return cls(s0 + s1 + s2 + s3, s0, fis)

    @property
    def is_polynomial(self) -> bool:
        return isinstance(self.p_suc, RationalPolynomial)

    @property
    def f_out(self) -> float:
        if self.is_polynomial:
            raise TypeError("f_out is a number only in numeric mode")
        return self.f_num / self.p_suc if self.p_suc > 0 else 0.0

    def f_out_at(self, fidelity) -> float:
        """Output fidelity of the polynomial-mode statistics at F=fidelity."""
        p = self.p_suc(fidelity)
        return self.f_num(fidelity) / p if p > 0 else 0.0

    def output_coeffs(self):
        """Normalised (F, F1, F2, F3) of the kept pair, numeric mode."""
        p = self.p_suc
        return tuple(x / p for x in (self.f_num,) + self.fi_nums)

    def evaluate(self, fidelity) -> "DistStats":
        """Numeric statistics of polynomial-mode stats at a given F."""
        if not self.is_polynomial:
            raise TypeError("already numeric")
        s0 = self.f_num(fidelity)
        rest = [p(fidelity) for p in self.fi_nums]
        return DistStats.from_coset_sums(s0, *rest)


def preimage_index(rows, n: int) -> np.ndarray:
    """Preimages of the base and of its three shifts under protocol matrices.

    rows is a (..., 2n) array of row masks.  Entry [..., k, j] is the j-th
    vector of the preimage of base coset k (order I, X, Y, Z), v0[j] ^
    shifts[k], where v0 lists the base preimage, spanned by rows 1..n-1 with
    their halves swapped, and shifts are (0, t1, t1 ^ t2, t2) for t1, t2 rows
    n and 0 with their halves swapped.  No inverse is formed: column j of
    M^-1 = Omega M^T Omega is swap_halves(rows[(j + n) % 2n]), so only rows
    0..n are read.  The vectors keep the integer dtype of rows and index
    state.probs directly.
    """
    rows = np.asarray(rows)
    v0 = np.zeros(rows.shape[:-1] + (1,), rows.dtype)
    for k in range(1, n):
        v0 = np.concatenate([v0, v0 ^ swap_halves(rows[..., k : k + 1], n)], axis=-1)
    t1 = swap_halves(rows[..., n], n)
    t2 = swap_halves(rows[..., 0], n)
    shifts = np.stack([np.zeros_like(t1), t1, t1 ^ t2, t2], axis=-1)
    return v0[..., None, :] ^ shifts[..., :, None]


def coset_sums(m: SymplecticMatrix, state: BellDiagonalState):
    """Pillar mass split over the four base cosets, in (I, X, Y, Z) order.

    The preimages under m of the base and of its three shifts are summed, so
    the order of the last three entries is tied to the kept pair's X/Y/Z
    labels before any canonical sorting.  Each sum runs along the contiguous
    last axis, as in `transversal.enumerate_stats`, so both agree bit for bit.
    """
    if state.n != m.n:
        raise ValueError("state and matrix pair counts differ")
    return tuple(state.probs[preimage_index(m.rows, m.n)].sum(axis=-1).tolist())


def numeric_stats(m: SymplecticMatrix, state: BellDiagonalState) -> DistStats:
    """Distillation statistics of protocol m on an arbitrary state."""
    if not is_symplectic(m):
        raise ValueError("matrix is not symplectic")
    return DistStats.from_coset_sums(*coset_sums(m, state))


def werner_counts(m: SymplecticMatrix, n: int) -> tuple:
    """Identity-weight histograms of the four preimage cosets, as tuples.

    Entry [k][w] counts vectors of identity weight w in the preimage of base
    coset k (order I, X, Y, Z).  These integer histograms determine the exact
    Werner-input statistics and are the deduplication key of the enumeration.
    This is the one-matrix case of `coset_histograms`.
    """
    return tuple(map(tuple, coset_histograms(m.rows, n).tolist()))


def coset_histograms(rows, n: int) -> np.ndarray:
    """`werner_counts` of many matrices at once, shape (..., 4, n+1).

    rows is a (..., 2n) array of row masks.  The identity weight of a vector
    w is n minus its Pauli weight, popcount((w | w >> n) & (2^n - 1)).
    """
    v = preimage_index(rows, n)
    weights = n - np.bitwise_count((v | v >> n) & ((1 << n) - 1))
    return (weights[..., None] == np.arange(n + 1)).sum(axis=-2)


@lru_cache(maxsize=None)
def _werner_term_matrix(n: int, dtype) -> np.ndarray:
    """3^n * F^w * ((1-F)/3)^(n-w) for w = 0..n as an integer (n+1, n+1) matrix.

    Row w is 3^w * F^w * (1-F)^(n-w): 3^w * (-1)^j * C(n-w, j) at power w + j,
    at most 3^n in magnitude.
    """
    terms = np.zeros((n + 1, n + 1), dtype)
    for w in range(n + 1):
        for j in range(n - w + 1):
            terms[w, w + j] = 3**w * (-1) ** j * math.comb(n - w, j)
    return terms


def werner_coeff_rows(hists, n: int) -> np.ndarray:
    """3^n * sum_w hist[w] * F^w * ((1-F)/3)^(n-w) as power-ascending integer rows.

    hists stacks histograms along its last axis.  One integer product with
    the scaled term matrix, in int64 while sum|hist| * 3^n bounds every entry
    below 2^63 and in Python integers otherwise.
    """
    hists = np.asarray(hists, dtype=object)
    small = max(1, np.max(np.abs(hists).sum(axis=-1))) * 3**n < 2**63
    terms = _werner_term_matrix(n, np.int64 if small else object)
    return hists.astype(terms.dtype) @ terms


def counts_to_poly(hist, n: int) -> RationalPolynomial:
    """Exact sum_w hist[w] * F^w * ((1-F)/3)^(n-w): one row of `werner_coeff_rows`."""
    scale = 3**n
    return RationalPolynomial(Fraction(int(c), scale) for c in werner_coeff_rows(hist, n))


def stats_from_counts(counts, n: int) -> DistStats:
    s0, s1, s2, s3 = (counts_to_poly(h, n) for h in counts)
    return DistStats.from_coset_sums(s0, s1, s2, s3)


def werner_stats(m: SymplecticMatrix, n: int) -> DistStats:
    """Exact polynomial statistics of protocol m on n identical Werner pairs."""
    if not is_symplectic(m):
        raise ValueError("matrix is not symplectic")
    return stats_from_counts(werner_counts(m, n), n)


def stats_in_epsilon(p: RationalPolynomial) -> RationalPolynomial:
    """Re-express a statistic polynomial in the infidelity eps = 1 - F."""
    return p.substitute_one_minus()


def leading_infidelity_term(stats: DistStats) -> tuple:
    """(k, c) such that F_out = 1 - c*eps^k + O(eps^(k+1)) around eps = 0.

    The series of f_num/p_suc - 1 = (f_num - p_suc)/p_suc starts exactly at
    the lowest term of f_num - p_suc because p_suc(eps=0) = 1.
    """
    if not stats.is_polynomial:
        raise TypeError("leading term requires polynomial-mode statistics")
    p_eps = stats_in_epsilon(stats.p_suc)
    f_eps = stats_in_epsilon(stats.f_num)
    if p_eps[0] != 1 or f_eps[0] != 1:
        raise ValueError("p_suc and f_num must equal 1 at F=1")
    diff = f_eps - p_eps
    low = diff.lowest_order()
    if low is None:
        raise ValueError("output fidelity is identically 1")
    k, c = low
    return k, -c


def counts_key(counts) -> tuple:
    """Canonical hashable key: base histogram plus sorted coset histograms."""
    return (counts[0], tuple(sorted(counts[1:])))


# Histogram (c_0, ..., c_n) is keyed as the number sum_w c_w * KEY_BASE^(n-w).
# Up to n = 8 every bin is at most 2^(n-1) < KEY_BASE, so digits never carry
# and numbers order like the histogram tuples, and KEY_BASE^(n+1) < 2^64 keeps
# them in one word; KEY_POWERS stops there, so wider histograms fail.
KEY_BASE = 129
KEY_POWERS = np.uint64(KEY_BASE) ** np.arange(9, dtype=np.uint64)


def encode_counts(hists) -> np.ndarray:
    """Coset histograms (..., 4, n+1), base coset first, as (..., 4) uint64 keys
    in `sort_coset_keys` order: equal rows mean equal counts_keys."""
    hists = np.asarray(hists, dtype=np.uint64)
    return sort_coset_keys(hists @ KEY_POWERS[hists.shape[-1] - 1 :: -1])


def decode_counts(keys, n: int) -> tuple:
    """The histograms of a row (4,) of `encode_counts` keys as four tuples, or of
    rows (count, 4) as one such tuple per row."""
    hists = np.asarray(keys, dtype=np.uint64)[..., None] // KEY_POWERS[n::-1] % np.uint64(KEY_BASE)
    rows = tuple(tuple(map(tuple, row)) for row in hists.reshape(-1, 4, n + 1).tolist())
    return rows if hists.ndim == 3 else rows[0]


@lru_cache(maxsize=None)
def _digit_tables(n: int) -> tuple:
    """Key shares of one pair digit and of two pair digits.

    Pair digit p*(n+1) + p' stands for two vectors of Pauli weights p and p',
    each adding KEY_BASE^p to its coset's number; two pair digits d, d' index
    entry d*(n+1)^2 + d' of the second table, (n+1)^4 entries (52 KB at n = 8).
    """
    powers = KEY_POWERS[: n + 1]
    pair = (powers[:, None] + powers[None, :]).ravel()
    return pair, (pair[:, None] + pair[None, :]).ravel()


def werner_keys(rows, n: int) -> np.ndarray:
    """`encode_counts(coset_histograms(rows, n))`: the Werner statistics keys of
    protocol matrices, rows a (..., 2n) array of row masks (n >= 2).

    The preimage vectors become their non-identity masks (v | v >> n) & (2^n - 1)
    in place.  Pauli weights (popcounts) of subsets s and s + S/2, S = 2^(n-1),
    make one pair digit, two pair digits one uint16 table index, so one gather
    covers four subsets.
    """
    pair, quad = _digit_tables(n)
    masks = preimage_index(rows, n)
    masks |= masks >> n  # in place: a fresh temporary per step costs more than the step
    masks &= (1 << n) - 1
    half = masks.shape[-1] // 2
    # each half's popcounts go straight into digits, never all weights at once
    digits = np.bitwise_count(masks[..., :half]) * np.uint8(n + 1) + np.bitwise_count(masks[..., half:])
    if half == 1:  # n = 2: two subsets, one pair digit
        keys = pair[digits[..., 0]]
    else:
        quarter = half // 2
        index = digits[..., :quarter] * np.uint16((n + 1) ** 2) + digits[..., quarter:]
        # gathered with the subsets first, the sum runs over whole rows
        keys = np.take(quad, np.moveaxis(index, -1, 0)).sum(axis=0)
    return sort_coset_keys(keys)


def sort_coset_keys(keys: np.ndarray) -> np.ndarray:
    """Sort the X, Y and Z cosets' numbers, entries 1..3 of the last axis, in place."""
    x, y, z = keys[..., 1], keys[..., 2], keys[..., 3]
    lo = np.minimum(np.minimum(x, y), z)
    hi = np.maximum(np.maximum(x, y), z)
    keys[..., 1], keys[..., 2], keys[..., 3] = lo, x ^ y ^ z ^ lo ^ hi, hi
    return keys
