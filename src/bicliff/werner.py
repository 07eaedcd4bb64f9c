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
preimage cosets; the batch engine below evaluates them vectorised over all
graph classes at once, encoding each histogram into one 64-bit key.  For a
subset s of the non-kept pairs, each coset shifts the X-part by one of
{0, a, b, a^b}, chosen by the parity b.s, so a shift table built once per n
(identity weight per subset, shift and graph class) turns every (a, b) pair
into one gather.  The key kernel of `states` (`pair_digits`, `digit_keys`)
then folds two subsets into one pair digit and two pair digits into one
lookup in a table of (n+1)^4 key shares, so one gathered word covers four
subsets.  Deduplication is exact: each block of key rows keeps its first
occurrences, and one more pass over the survivors of all blocks keeps the
first case of every distinct key.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .blocks import ordered_calls
from .gf2 import SymplecticMatrix
from .metrics import CurveSet
from .states import DistStats, digit_keys, pair_digits, stats_from_counts, werner_coeff_rows

# werner_counts is no longer called here; it stays importable from this module
# because perfbench/spans.py wraps it by name on bicliff.werner.
from .states import werner_counts  # noqa: F401

MAX_GRAPH_NODES = 7  # graphs on n-1 nodes for n up to 8


# ---------------------------------------------------------------------------
# Graphs on m labelled nodes up to isomorphism
# ---------------------------------------------------------------------------


def _edge_list(m: int) -> list:
    return [(i, j) for j in range(1, m) for i in range(j)]


def _permuted_mask_map(m: int, perm) -> np.ndarray:
    """Map mask -> mask with vertices relabelled by perm, for all masks.

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
    return tuple(int(v) for v in np.unique(_canonical((below[:, None] | tops).ravel(), m)))


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
    minima = np.concatenate([_block_minima(m - 1, d) for d in range(m)])
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


def graph_adjacency_rows(mask: int, m: int) -> list:
    """Adjacency matrix of an edge bitmask as m bit-packed rows."""
    rows = [0] * m
    for k, (i, j) in enumerate(_edge_list(m)):
        if (mask >> k) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


# ---------------------------------------------------------------------------
# (a, b) pairs with a <= b <= a^b
# ---------------------------------------------------------------------------


def ab_pairs(m: int):
    """Yield (a, b) over F2^m with a <= b <= a^b, ascending as integer pairs.

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


def count_ab_pairs(m: int) -> int:
    """Number of (a, b) pairs with a <= b <= a^b over F2^m."""
    if m < 1:
        raise ValueError("m must be positive")
    total = 1 << m  # a = 0
    for h in range(m):
        total += (1 << h) * ((1 << (m - h - 1)) - 1) * (1 << h)
    return total


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


def enumerate_cases(n: int):
    """All cases for n pairs, (a, b) ascending then graph mask ascending."""
    _check_enum_n(n)
    graphs = graphs_up_to_iso(n - 1)
    for a, b in ab_pairs(n - 1):
        for e in graphs:
            yield WernerCase(n, a, b, e)


def case_count(n: int) -> int:
    _check_enum_n(n)
    return count_ab_pairs(n - 1) * len(graphs_up_to_iso(n - 1))


def _check_enum_n(n: int) -> None:
    if not 2 <= n <= MAX_GRAPH_NODES + 1:
        raise ValueError(f"enumeration supports 2 <= n <= {MAX_GRAPH_NODES + 1}")


def build_representative(case: WernerCase, n: int | None = None) -> SymplecticMatrix:
    """The canonical-form representative of a case.

    Upper-left block [[1, 0], [a, I]], upper-right [[0, b^T], [b, E + b a^T]],
    lower-left zero, lower-right the transpose of the upper-left.
    """
    n = case.n if n is None else n
    m = n - 1
    erows = graph_adjacency_rows(case.e, m)
    a, b = case.a, case.b
    rows = [1 | (b << (n + 1))]
    for k in range(1, n):
        ak = (a >> (k - 1)) & 1
        bk = (b >> (k - 1)) & 1
        xrest = erows[k - 1] ^ (a if bk else 0)
        rows.append(ak | (1 << k) | (bk << n) | (xrest << (n + 1)))
    rows.append((1 | (a << 1)) << n)
    for k in range(1, n):
        rows.append(1 << (n + k))
    return SymplecticMatrix(n, rows)


@dataclass
class Protocol:
    """A distillation protocol: representative matrix plus coset histograms.

    The identity-weight histograms of the four preimage cosets fix the exact
    Werner statistics; `stats` is derived from them on first use.
    """

    n: int
    rep: SymplecticMatrix
    counts: tuple  # preimage-coset histograms, base coset first
    source: WernerCase
    case_index: int

    @cached_property
    def stats(self) -> DistStats:
        return stats_from_counts(self.counts, self.n)


# ---------------------------------------------------------------------------
# Batched statistics keys
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tables(n: int):
    """The vectorised per-graph tables for one n, built once per process.

    idw[s, t, g] is the identity weight of the non-kept pairs of subset s
    under graph g when the X-rest is shifted by t: m - |(R_g[s] ^ t) | s|.
    """
    m = n - 1
    graphs = graphs_up_to_iso(m)
    g_count = len(graphs)
    size = 1 << m
    erows = _adjacency(graphs, m).T.astype(np.uint32)
    subsets = np.arange(size, dtype=np.uint32)
    row_xors = np.zeros((g_count, size), dtype=np.uint32)
    for k in range(m):
        sel = ((subsets >> k) & 1) == 1
        row_xors[:, sel] ^= erows[:, k : k + 1]
    pop = np.array([int(s).bit_count() for s in range(size)], dtype=np.uint8)
    idw = np.empty((size, size, g_count), dtype=np.uint8)
    for t in range(size):
        idw[:, t, :] = (m - pop[(row_xors ^ np.uint32(t)) | subsets]).T
    parity = (pop & 1).astype(bool)
    return idw, subsets, parity


# kept-pair shifts (alpha, beta) of the cosets I, X, Y, Z
_ALPHA = np.array([0, 1, 1, 0])
_BETA = np.array([0, 0, 1, 1])


def _pair_keys(n: int, a: int, b: int) -> np.ndarray:
    """Per-graph dedup keys for one (a, b) pair: (G, 4) uint64.

    Column 0 encodes the base-coset histogram, columns 1..3 the sorted other
    three (`states.digit_keys`).  Derived from the closed form of the
    representative's inverse: a subset s of the (n-1) non-kept rows has
    X-rest R[s] ^ ((b.s)^alpha)*a ^ beta*b, Z-rest s, and kept-pair bits
    (alpha^(b.s), beta^(a.s)).  The X-shift is one of {0, a, b, a^b}, picked
    by b.s, so the identity weights of all graphs are one gather from the
    shift table, with the subsets on axis 0.  The kept pair adds one to the
    identity weight where both its bits are zero; that increment depends on
    the subset and coset only, so it is added once to the (2^(n-2), 4) pair
    digits rather than to the weights of every graph.
    """
    idw, subsets, parity = _tables(n)
    b_dot = parity[np.bitwise_and(np.uint32(b), subsets)][:, None]
    a_dot = parity[np.bitwise_and(np.uint32(a), subsets)][:, None]
    shift_off = np.array([0, a, a ^ b, b])  # X-shift where b.s = 0
    shift_on = np.array([a, 0, b, a ^ b])  # X-shift where b.s = 1
    shifts = np.where(b_dot, shift_on, shift_off)  # (2^(n-1), 4)
    kept = ((b_dot == _ALPHA) & (a_dot == _BETA)).astype(np.uint8)
    digits = pair_digits(idw[subsets[:, None], shifts], n)  # (2^(n-2), 4, G)
    digits += pair_digits(kept, n)[:, :, None]
    return digit_keys(digits, n).T


def _chunk_keys(n: int, pairs: list) -> np.ndarray:
    return np.vstack([_pair_keys(n, a, b) for a, b in pairs])


def counts_from_key(key: int, n: int) -> tuple:
    """Decode one base-129 histogram key back into counts."""
    out = []
    k = int(key)
    for i in range(n, -1, -1):
        out.append(k // (129**i) % 129)
    return tuple(out)


_CHUNK_PAIRS = 64  # (a, b) pairs per work unit


def all_case_keys(n: int, jobs: int = 1) -> np.ndarray:
    """Dedup keys of every case, in canonical case order: (cases, 4) uint64.

    Chunks of (a, b) pairs are keyed in order (on `jobs` worker processes
    when jobs > 1) and each lands in its rows of one preallocated array.
    """
    _check_enum_n(n)
    pairs = list(ab_pairs(n - 1))
    calls = [(n, pairs[i : i + _CHUNK_PAIRS]) for i in range(0, len(pairs), _CHUNK_PAIRS)]
    per_pair = _tables(n)[0].shape[2]  # one key row per graph class
    keys = np.empty((len(pairs) * per_pair, 4), dtype=np.uint64)
    start = 0
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for arr in ordered_calls(_chunk_keys, calls, pool, jobs):
            keys[start : start + len(arr)] = arr
            start += len(arr)
    return keys


_DEDUP_ROWS = 1 << 16  # key rows deduplicated per block before the merge


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Ascending row indices of the first occurrence of each distinct key row.

    Each block of rows is deduplicated on its own, then the survivors of all
    blocks once more, so no sort ever spans the whole key array.
    """
    survivors = np.concatenate([
        start + first_rows(keys[start : start + _DEDUP_ROWS])
        for start in range(0, len(keys), _DEDUP_ROWS)
    ])
    return survivors[first_rows(keys[survivors])]


def distinct_protocols(n: int, jobs: int = 1) -> list:
    """One protocol per distinct exact Werner statistics, in case order.

    Cases are scanned in the canonical order and deduplicated on the exact
    statistics key (base histogram plus sorted multiset of the other three);
    the first case producing each key supplies the stored representative.
    """
    keys = all_case_keys(n, jobs=jobs)
    graphs = graphs_up_to_iso(n - 1)
    g_count = len(graphs)
    pairs = list(ab_pairs(n - 1))
    protocols = []
    for idx in first_occurrences(keys):
        idx = int(idx)
        a, b = pairs[idx // g_count]
        case = WernerCase(n, a, b, graphs[idx % g_count])
        counts = tuple(counts_from_key(k, n) for k in keys[idx])
        protocols.append(Protocol(n, build_representative(case), counts, case, idx))
    return protocols


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
    pointwise: list  # per-grid-point winning case index (when not dominant)
    grid: np.ndarray


def pick_curve(values: np.ndarray) -> tuple:
    """(row, dominant, per_point) for a (curves, grid points) value array.

    The first curve maximal at every point dominates (per_point empty);
    otherwise per_point holds each point's first maximal curve and row the
    last point's.  Maximal means within 1e-12 of the best: exact ties between
    curves (e.g. every F_out = 1/2 at F = 1/2) differ by a few ulps in float.
    """
    best = values.max(axis=0)
    maximal = values >= best[None, :] - 1e-12
    rows = np.where(maximal.all(axis=1))[0]
    if len(rows):
        return int(rows[0]), True, []
    per_point = maximal.argmax(axis=0)
    return int(per_point[-1]), False, [int(i) for i in per_point]


def first_rows(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row.

    Rows (the slices along axis 0) are compared by their bytes, as
    `tobytes()` would: a stable lexsort groups equal rows with the earliest
    first, and each group's head is where a row differs from its predecessor.
    """
    flat = np.ascontiguousarray(rows).reshape(len(rows), np.prod(rows.shape[1:], dtype=int))
    flat = flat.view(f"u{flat.itemsize}")
    order = np.lexsort(flat.T)
    ordered = flat[order]
    new = np.ones(len(flat), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[new])


def best_fidelity_protocol(
    n: int, protocols: list | None = None, f_grid=None
) -> BestFidelityResult:
    """The protocol(s) maximising F_out pointwise over the fidelity grid.

    Protocols with identical (p_suc, f_num) form one curve; if a single curve
    is maximal at every grid point it is reported as dominant, otherwise the
    per-point winners are returned so crossovers are visible.  The curves
    come straight from the histograms' integer coefficient rows.
    """
    if protocols is None:
        protocols = distinct_protocols(n)
    grid = default_f_grid() if f_grid is None else np.asarray(f_grid, dtype=float)
    rows = werner_coeff_rows([p.counts for p in protocols], n)
    curve_keys = np.concatenate([rows.sum(axis=1), rows[:, 0]], axis=1)
    heads = sorted(first_rows(curve_keys), key=lambda i: protocols[i].case_index)
    curves = CurveSet(rows[heads], 3**n, grid)
    row, dominant, per_point = pick_curve(curves.f / curves.p)
    winners = [protocols[heads[i]].case_index for i in per_point]
    same = (curve_keys == curve_keys[heads[row]]).all(axis=1)
    tied = [protocols[i] for i in np.flatnonzero(same)]
    return BestFidelityResult(tied[0], tied, dominant, winners, grid)
