"""Exhaustive enumeration of protocols on n identical Werner pairs.

Every double coset (distillation subgroup on the left, Werner symmetry group
on the right) contains a representative determined by a triple (a, b, E): two
(n-1)-bit vectors with a <= b <= a^b in integer order, and a symmetric
zero-diagonal matrix E taken up to simultaneous row/column permutation, i.e.
a graph on n-1 labelled nodes up to isomorphism.  Enumerating the triples,
computing each representative's exact Werner statistics and deduplicating
yields every distinct protocol.

Each graph class is its minimum edge mask over all relabelings.  The classes
on m nodes come from those on m-1 nodes by adding one vertex in every way:
the minimum puts a least-degree vertex last with its neighbours first, so
canonicalising a candidate takes one lookup per vertex in a table of orbit
minima of the graphs on m-1 nodes under the relabelings that keep those
neighbours first.  No step ranges over all 2^21 labelled graphs on 7 nodes.

The per-case work is a set of identity-weight histograms over the four
preimage cosets, each encoded into one 64-bit key.  A subset s of the
non-kept pairs gives one vector to each coset, whose X-shift, one of
{0, a, b, a^b}, and kept-pair bits are fixed by the parities (a.s, b.s), so
each key is a weighted sum over the four classes of subsets with equal
parities: KEY_BASE times the coset's total less KEY_BASE - 1 times its kept
class, both fixed integer combinations of a Walsh-Hadamard transform over s
(Poisson summation).  One transform per block of graph classes serves every
(a, b) pair, and each key is read straight off a gather of 16 of its entries
in wrapping uint64 arithmetic (exact: see `_block_keys`).  Deduplication
streams: each block of graph classes is keyed and reduced to its first
occurrences at once, so only the survivors of all blocks are ever held
together, and one more pass over them, in case order, keeps the first case
of every distinct key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .blocks import ordered_calls
from .gf2 import SymplecticMatrix
from .metrics import CurveSet
from .orders import MAX_GRAPH_NODES
from .states import KEY_BASE, DistStats, decode_counts, sort_coset_keys
from .states import stats_from_counts, werner_coeff_rows

# werner_counts is no longer called here; it stays importable from this module
# because perfbench/spans.py wraps it by name on bicliff.werner.
from .states import werner_counts  # noqa: F401


# ---------------------------------------------------------------------------
# Graphs on m labelled nodes up to isomorphism
# ---------------------------------------------------------------------------


def _edge_list(m: int) -> list:
    return [(i, j) for j in range(1, m) for i in range(j)]


def _permuted_mask_map(m: int, perm) -> np.ndarray:
    """Map mask -> mask with vertices relabelled by perm, for all masks.

    Each edge bit moves to the position of its relabelled edge.
    """
    edges = _edge_list(m)
    index = {e: k for k, e in enumerate(edges)}
    masks = np.arange(1 << len(edges), dtype=np.int32)
    out = np.zeros_like(masks)
    for k, (i, j) in enumerate(edges):
        out |= ((masks >> k) & 1) << index[min(perm[i], perm[j]), max(perm[i], perm[j])]
    return out


def graphs_up_to_iso(m: int) -> list:
    """One canonical edge-bitmask per isomorphism class of graphs on m nodes.

    The canonical form is the minimum bitmask over all vertex relabelings.
    The classes on m nodes are built from those on m-1 nodes by adding one
    vertex with every possible neighbourhood and canonicalising each
    candidate (`_canonical`): 156 x 64 = 9,984 candidates for the 1,044
    classes on 7 nodes.  Classes are computed once per process; each call
    returns a fresh list.
    """
    if not 0 <= m <= MAX_GRAPH_NODES:
        raise ValueError(f"supported node counts are 0..{MAX_GRAPH_NODES}")
    return list(_graph_classes(m))


def _pairs_before(k: int) -> int:
    """E(k) = k(k-1)/2: the number of edges among vertices 0..k-1."""
    return k * (k - 1) // 2


@lru_cache(maxsize=None)
def _graph_classes(m: int) -> tuple:
    if m <= 1:
        return (0,)
    below = np.asarray(_graph_classes(m - 1), dtype=np.int64)
    tops = np.arange(1 << (m - 1), dtype=np.int64) << _pairs_before(m - 1)
    # a set, not np.unique: that imports numpy.ma on first use
    return tuple(sorted(set(_canonical((below[:, None] | tops).ravel(), m).tolist())))


@lru_cache(maxsize=None)
def _block_minima(k: int, d: int) -> np.ndarray:
    """Orbit minimum of every mask on k nodes under the relabelings that keep
    {0..d-1} and {d..k-1} setwise: an int32 table of 2^E(k) entries.

    Min-label propagation along a transposition, a cycle and its inverse
    inside each block, plus pointer jumping, converges in a handful of
    vectorised passes; d = 0 is the full symmetric group.
    """
    perms = []
    for lo, hi in ((0, d), (d, k)):
        if hi - lo < 2:
            continue
        swap, cycle, inv_cycle = list(range(k)), list(range(k)), list(range(k))
        swap[lo], swap[lo + 1] = lo + 1, lo
        for i in range(lo, hi):
            cycle[i] = lo + (i - lo + 1) % (hi - lo)
            inv_cycle[i] = lo + (i - lo - 1) % (hi - lo)
        perms += [swap, cycle, inv_cycle]
    maps = [_permuted_mask_map(k, p) for p in perms]
    rep = np.arange(1 << _pairs_before(k), dtype=np.int32)
    while True:
        nxt = rep
        for g in maps:
            nxt = np.minimum(nxt, rep[g])
        nxt = np.minimum(nxt, rep[nxt])
        if np.array_equal(nxt, rep):
            return rep
        rep = nxt


def _adjacency(masks, m: int) -> np.ndarray:
    """Bit-packed adjacency rows of edge masks on m nodes: (m, masks) int64."""
    masks = np.asarray(masks, dtype=np.int64)
    rows = np.zeros((m, len(masks)), dtype=np.int64)
    for k, (i, j) in enumerate(_edge_list(m)):
        bit = (masks >> k) & 1
        rows[i] |= bit << j
        rows[j] |= bit << i
    return rows


def _canonical(masks: np.ndarray, m: int) -> np.ndarray:
    """Canonical form (minimum relabelled mask) of edge masks on m >= 1 nodes.

    The top m-1 bits are the neighbours of the last vertex, so the minimum
    puts a vertex v of least degree d last, its neighbours on 0..d-1, and
    the top block is 2^d - 1.  The rest is G - v minimised over relabelings
    that keep {0..d-1} and {d..m-2} setwise: one lookup in
    `_block_minima(m-1, d)` after relabelling G - v with v's neighbours
    first, then the other vertices, each in increasing order.  The result is
    the minimum of that over every v: a vertex of higher degree has a
    larger top block, so it never wins.
    """
    masks = np.asarray(masks, dtype=np.int64)
    edges = _edge_list(m)
    rows = _adjacency(masks, m)
    degree = np.bitwise_count(rows).astype(np.int64)
    size = 1 << _pairs_before(m - 1)
    # d = 0 and d = m - 1 both keep one block of all m - 1 nodes: one table
    full = _block_minima(m - 1, 0)
    minima = np.concatenate([full, *(_block_minima(m - 1, d) for d in range(1, m - 1)), full][:m])
    best = np.full(len(masks), np.iinfo(np.int64).max)
    for v in range(m):
        nbrs = rows[v]
        labels = []
        for u in range(m):
            rank = np.bitwise_count(nbrs & ((1 << u) - 1)).astype(np.int64)
            labels.append(np.where((nbrs >> u) & 1, rank, degree[v] + u - (v < u) - rank))
        rest = np.zeros(len(masks), dtype=np.int64)
        for k, (i, j) in enumerate(edges):
            if v in (i, j):
                continue
            lo, hi = np.minimum(labels[i], labels[j]), np.maximum(labels[i], labels[j])
            rest |= ((masks >> k) & 1) << (_pairs_before(hi) + lo)
        form = ((1 << degree[v]) - 1) << _pairs_before(m - 1) | minima[degree[v] * size + rest]
        best = np.minimum(best, form)
    return best


# ---------------------------------------------------------------------------
# (a, b) pairs with a <= b <= a^b
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def ab_pairs(m: int) -> tuple:
    """The (a, b) pairs over F2^m with a <= b <= a^b, ascending as integer pairs."""
    return tuple((a, b) for a in range(1 << m) for b in range(a, 1 << m) if b <= a ^ b)


def count_ab_pairs(m: int) -> int:
    """Number of (a, b) pairs with a <= b <= a^b over F2^m."""
    if m < 1:
        raise ValueError("m must be positive")
    return (4**m + 3 * 2**m + 2) // 6


# ---------------------------------------------------------------------------
# Cases and representatives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WernerCase:
    """A canonical triple (a, b, E) indexing one enumeration case."""

    n: int
    a: int
    b: int
    e: int  # canonical edge bitmask of the graph on n-1 nodes


def case_count(n: int) -> int:
    _check_enum_n(n)
    return count_ab_pairs(n - 1) * len(graphs_up_to_iso(n - 1))


def case_at(n: int, index: int) -> WernerCase:
    """The case at position `index` of the n-pair enumeration order.

    Cases run over the (a, b) pairs of `ab_pairs` in ascending order, and for
    each pair over the graph classes in ascending order of edge mask.
    """
    _check_enum_n(n)
    pairs, graphs = ab_pairs(n - 1), _graph_classes(n - 1)
    if not 0 <= index < len(pairs) * len(graphs):
        raise ValueError(f"case index {index} is not below {len(pairs) * len(graphs)}")
    pair, graph = divmod(index, len(graphs))
    return WernerCase(n, *pairs[pair], graphs[graph])


def _check_enum_n(n: int) -> None:
    if not 2 <= n <= MAX_GRAPH_NODES + 1:
        raise ValueError(f"enumeration supports 2 <= n <= {MAX_GRAPH_NODES + 1}")


def build_representative(case: WernerCase) -> SymplecticMatrix:
    """The canonical-form representative of a case: the one-case form of
    `representative_rows`."""
    return SymplecticMatrix(case.n, representative_rows([case], case.n)[0].tolist())


def representative_rows(cases: list, n: int) -> np.ndarray:
    """Row masks of the representatives of n-pair cases: a (len(cases), 2n) int64 array.

    Upper-left block [[1, 0], [a, I]], upper-right [[0, b^T], [b, E + b a^T]],
    lower-left zero, lower-right the transpose of the upper-left.
    """
    a = np.array([case.a for case in cases], dtype=np.int64)
    b = np.array([case.b for case in cases], dtype=np.int64)
    erows = _adjacency([case.e for case in cases], n - 1)
    rows = np.empty((len(cases), 2 * n), dtype=np.int64)
    rows[:, 0] = 1 | (b << (n + 1))
    for k in range(1, n):
        ak = (a >> (k - 1)) & 1
        bk = (b >> (k - 1)) & 1
        xrest = erows[k - 1] ^ (a * bk)
        rows[:, k] = ak | (1 << k) | (bk << n) | (xrest << (n + 1))
    rows[:, n] = (1 | (a << 1)) << n
    rows[:, n + 1 :] = 1 << np.arange(n + 1, 2 * n)
    return rows


@dataclass
class Protocol:
    """A distillation protocol: its case index plus coset histograms.

    The identity-weight histograms of the four preimage cosets fix the exact
    Werner statistics; a cache stores the index alone, and its loader derives
    them.  The case, its representative matrix and `stats` follow on first use.
    """

    n: int
    counts: tuple  # preimage-coset histograms, base coset first
    case_index: int  # (a, b) ascending, then graph class ascending; see `case_at`

    @cached_property
    def source(self) -> WernerCase:
        return case_at(self.n, self.case_index)

    @cached_property
    def rep(self) -> SymplecticMatrix:
        return build_representative(self.source)

    @cached_property
    def stats(self) -> DistStats:
        return stats_from_counts(self.counts, self.n)


# ---------------------------------------------------------------------------
# Batched statistics keys
# ---------------------------------------------------------------------------

# Coset c (order I, X, Y, Z): X-shifts t0 and t1 of its subsets with b.s = 0
# and 1, and the shift tk and character signs of its kept class; shifts and
# characters index [0, a, b, a^b].  Tuples, so that importing builds nothing.
_COSETS = (
    (0, 1, 0, (1, 1, 1, 1)),
    (1, 0, 0, (1, 1, -1, -1)),
    (3, 2, 2, (1, -1, -1, 1)),
    (2, 3, 2, (1, -1, 1, -1)),
)

_BLOCK_GRAPHS = 48  # graph classes per transform (a 6.3 MB table at n = 8)
_BLOCK_PAIRS = 128  # (a, b) pairs per gather from it
_HASH_MIX = 0x9E3779B97F4A7C15  # odd base of the polynomial row hash in `first_rows`
_CURVE_SLICE = 64  # curves evaluated at a time in `best_curve`
_KEPT_FACTOR = (KEY_BASE - 1) // 4  # weight of a kept class's Q in `_block_keys`


def _block_keys(n: int, masks: list, keys: np.ndarray) -> None:
    """Dedup keys of some graph classes under every (a, b) pair, into keys: (pairs, G, 4).

    Column 0 encodes the base-coset histogram, columns 1..3 the sorted other
    three, as `states.encode_counts` does: each vector of identity weight
    w adds KEY_BASE^(n-w).  By the closed form of the representative's inverse,
    a subset s of the m = n-1 non-kept rows has X-rest R[s] ^ t, with R[s] the
    xor of the graph's adjacency rows in s and t one of [0, a, b, a^b], so
    its identity weight is m - P[s, t], P = popcount((R[s] ^ t) | s), plus
    one where the kept pair's bits are zero, which depends on (a.s, b.s) and
    the coset alone.  With C_kept the sum of KEY_BASE^P over the subsets in
    the kept class (of k = a.s + 2 b.s) and T the coset's total of KEY_BASE^P,
    key = KEY_BASE (T - C_kept) + C_kept = KEY_BASE T - `_KEPT_FACTOR` Q.
    Poisson summation reads both off Ê, the Walsh-Hadamard transform of
    KEY_BASE^P over s, built once per block of graphs for every pair:
    2T = Ê[0, t0] + Ê[b, t0] + Ê[0, t1] - Ê[b, t1] (two half-space sums over
    b.s) and Q = 4 C_kept = Ê[0, tk] ± Ê[a, tk] ± Ê[b, tk] ± Ê[a^b, tk],
    (t0, t1, tk, signs) from `_COSETS`.

    Exact for n <= 8 at KEY_BASE = 129: |Ê| <= 2^m KEY_BASE^m < 2^63 fits
    the int64 table; every key is below 2^(n-1) KEY_BASE^n < 2^64, so the
    uint64 sums may wrap mod 2^64; and the one division, 2T >> 1, is exact
    because 0 <= 2T <= 2^(m+1) KEY_BASE^m < 2^64 holds 2T itself.
    """
    m = n - 1
    size = 1 << m
    subsets = np.arange(size, dtype=np.uint8)
    rows = _adjacency(masks, m).astype(np.uint8)
    row_xors = np.zeros((size, len(masks)), dtype=np.uint8)
    for k in range(m):
        row_xors[1 << k : 2 << k] = row_xors[: 1 << k] ^ rows[k]
    nonid = np.bitwise_count((row_xors[:, None] ^ subsets[:, None]) | subsets[:, None, None])
    table = (np.int64(KEY_BASE) ** np.arange(m + 1))[nonid]  # [s, t, graph]
    for h in (1 << k for k in range(m)):  # transform over s, in place
        x, y = table.reshape(size // (2 * h), 2, h, -1).transpose(1, 0, 2, 3)
        x += y
        y *= -2
        y += x
    a, b = np.array(ab_pairs(m)).T
    shifts = np.stack([np.zeros_like(a), a, b, a ^ b])
    for lo in range(0, shifts.shape[1], _BLOCK_PAIRS):
        shift = shifts[:, lo : lo + _BLOCK_PAIRS]
        e = table[shift[:, None], shift[None]].view(np.uint64)  # [character, t, pair, graph]
        out = np.empty((4,) + e.shape[2:], dtype=np.uint64)  # [coset, pair, graph]
        for key, (t0, t1, tk, signs) in zip(out, _COSETS):
            np.subtract(e[0, t0] + e[2, t0] + e[0, t1], e[2, t1], out=key)  # 2T
            key >>= 1
            key *= KEY_BASE
            for sign, entry in zip(signs, e[:, tk]):  # less _KEPT_FACTOR Q
                (np.subtract if sign > 0 else np.add)(key, entry * _KEPT_FACTOR, out=key)
        keys[lo : lo + _BLOCK_PAIRS] = sort_coset_keys(np.moveaxis(out, 0, -1))


def all_case_keys(n: int, graphs: list | None = None) -> np.ndarray:
    """Dedup keys of every case over the given graph classes (default: all),
    pair-major: (pairs x graphs, 4) uint64.  Blocks of `_BLOCK_GRAPHS` classes
    are keyed under every (a, b) pair straight into their columns."""
    _check_enum_n(n)
    graphs = graphs_up_to_iso(n - 1) if graphs is None else graphs
    keys = np.empty((count_ab_pairs(n - 1), len(graphs), 4), dtype=np.uint64)
    for lo in range(0, len(graphs), _BLOCK_GRAPHS):
        _block_keys(n, graphs[lo : lo + _BLOCK_GRAPHS], keys[:, lo : lo + _BLOCK_GRAPHS])
    return keys.reshape(-1, 4)


def _first_cases(n: int, graphs: list, lo: int, total: int) -> tuple:
    """(case indices, key rows) of the first occurrences among the cases of graph
    classes lo, lo+1, ... out of `total`.  `all_case_keys` is looked up by name
    on every call, so a probe put on `werner.all_case_keys` sees each block."""
    keys = all_case_keys(n, graphs)
    first = first_rows(keys)
    pair, graph = np.divmod(first, len(graphs))
    return pair * total + lo + graph, keys[first]


def distinct_protocols(n: int, jobs: int = 1) -> list:
    """One protocol per distinct exact Werner statistics, in case order.

    Cases are scanned in the canonical order and deduplicated on the exact
    statistics key (base histogram plus sorted multiset of the other three);
    the first case producing each key is the protocol's case.
    Each block of `_BLOCK_GRAPHS` graph classes is deduplicated on its own (on
    up to `jobs` worker processes, see `ordered_calls`), then the survivors.
    """
    _check_enum_n(n)
    graphs = graphs_up_to_iso(n - 1)
    starts = range(0, len(graphs), _BLOCK_GRAPHS)
    calls = [(n, graphs[lo : lo + _BLOCK_GRAPHS], lo, len(graphs)) for lo in starts]
    blocks = ordered_calls(_first_cases, calls, jobs)
    index, keys = map(np.concatenate, zip(*blocks))
    order = np.argsort(index)
    first = order[first_rows(keys[order])]
    counts = decode_counts(keys[first], n)
    return [Protocol(n, row, idx) for idx, row in zip(index[first].tolist(), counts)]


# ---------------------------------------------------------------------------
# Best output fidelity over a grid
# ---------------------------------------------------------------------------


def default_f_grid() -> np.ndarray:
    return np.round(np.arange(0.500, 0.9995, 0.001), 6)


@dataclass
class BestFidelityResult:
    protocol: Protocol  # lowest-case-index member of the winning group
    tied: list  # every protocol sharing the winning (p_suc, f_num)
    dominant: bool  # winner maximal at every grid point


def pick_curve(values: np.ndarray) -> tuple:
    """(row, dominant) for a (curves, grid points) value array.

    The first curve maximal at every point dominates; otherwise row is the
    last point's first maximal curve.  Maximal means within 1e-12 of the
    best: exact ties between curves (e.g. every F_out = 1/2 at F = 1/2)
    differ by a few ulps in float.
    """
    maximal = values >= values.max(axis=0) - 1e-12
    rows = np.flatnonzero(maximal.all(axis=1))
    if len(rows):
        return int(rows[0]), True
    return int(maximal[:, -1].argmax()), False


def best_curve(rows: np.ndarray, n: int, grid: np.ndarray) -> tuple:
    """`pick_curve` over the F_out curves of n-pair `CurveSet` coefficient rows.

    Rows with equal (p_suc, f_num) form one curve, named by its first row.
    Returns (tied, dominant): the ascending rows of the winning curve.
    """
    keys = np.concatenate([rows.sum(axis=1), rows[:, 0]], axis=1)
    heads = first_rows(keys)
    # F_out of `_CURVE_SLICE` curves at a time: the full p and f are never held
    values = np.empty((len(heads), len(grid)))
    for lo in range(0, len(heads), _CURVE_SLICE):
        curves = CurveSet(rows[heads[lo : lo + _CURVE_SLICE]], n, grid)
        np.divide(curves.f, curves.p, out=values[lo : lo + _CURVE_SLICE])
    row, dominant = pick_curve(values)
    return np.flatnonzero((keys == keys[heads[row]]).all(axis=1)), dominant


def first_rows(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row.

    Rows (the slices along axis 0) are compared by their bytes, as
    `tobytes()` would.  One sort of 64-bit row hashes, their low bits replaced by
    the row index, orders the rows by hash, then by index.  Equal rows hash
    alike, so a row equal to the one before it in that order is never a first
    occurrence, whatever the hash; a stable lexsort of the others is exact.
    """
    flat = np.ascontiguousarray(rows).reshape(len(rows), np.prod(rows.shape[1:], dtype=int))
    flat = flat.view(f"u{flat.itemsize}")
    hashes = flat @ np.cumprod(np.full(flat.shape[1], _HASH_MIX, dtype=np.uint64))
    bits = max(len(flat) - 1, 0).bit_length()
    packed = np.sort(hashes >> bits << bits | np.arange(len(flat), dtype=np.uint64))
    candidates = np.sort(_heads(flat, (packed & ((1 << bits) - 1)).astype(np.intp)))
    cand = flat[candidates]
    return np.sort(candidates[_heads(cand, np.lexsort(cand.T))])


def _heads(flat: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The entries of order whose row differs from the row before it in order."""
    ordered = np.take(flat, order, axis=0)
    new = np.ones(len(order), dtype=bool)
    # a boolean product with ones is a row-wise any, and far faster on narrow rows
    new[1:] = (ordered[1:] != ordered[:-1]) @ np.ones(flat.shape[1], dtype=bool)
    return order[new]


def best_fidelity_protocol(n: int, protocols: list | None = None) -> BestFidelityResult:
    """The protocol(s) maximising F_out pointwise over the default fidelity grid.

    Protocols with identical (p_suc, f_num) form one curve; if a single curve
    is maximal at every grid point it is dominant, otherwise the one maximal
    at the last grid point is reported.  The curves come straight from the
    histograms' integer coefficient rows, in case order, so ties go to the
    lowest case index.
    """
    if protocols is None:
        protocols = distinct_protocols(n)
    protocols = sorted(protocols, key=lambda p: p.case_index)
    rows = werner_coeff_rows([p.counts for p in protocols], n)
    tied, dominant = best_curve(rows, n, default_f_grid())
    tied = [protocols[i] for i in tied]
    return BestFidelityResult(tied[0], tied, dominant)
