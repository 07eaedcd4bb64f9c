import dataclasses
import functools
import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliff.gf2 import is_symplectic
from bicliff.metrics import CurveSet
from bicliff.states import counts_key, decode_counts, werner_coeff_rows, werner_counts, werner_stats
from bicliff.werner import (
    MAX_GRAPH_NODES,
    WernerCase,
    _canonical,
    ab_pairs,
    all_case_keys,
    best_curve,
    build_representative,
    case_at,
    case_count,
    count_ab_pairs,
    default_f_grid,
    distinct_protocols,
    first_rows,
    graphs_up_to_iso,
    pick_curve,
    representative_rows,
)
from _reference import (
    CASE_COUNTS,
    DISTINCT_COUNTS,
    GRAPH_CLASS_COUNTS,
    best_f_poly,
    best_p_poly,
)
from _scalar_reference import (
    ab_pairs_by_top_bit,
    adjacency_rows,
    enumerate_cases,
    full_key_table,
    kn_generators,
    propagated_graph_classes,
)
from _scalar_reference import representative as scalar_representative


# --- graphs up to isomorphism -------------------------------------------------


def relabel(mask, perm, m):
    """The edge mask of the graph whose vertex i is relabelled perm[i]."""
    edges = [(i, j) for j in range(1, m) for i in range(j)]
    index = {e: k for k, e in enumerate(edges)}
    out = 0
    for k, (i, j) in enumerate(edges):
        if (mask >> k) & 1:
            a, b = perm[i], perm[j]
            out |= 1 << index[(min(a, b), max(a, b))]
    return out


def brute_force_classes(m):
    """Canonical masks by explicit minimisation over all m! relabelings."""
    perms = list(itertools.permutations(range(m)))
    reps = set()
    for mask in range(1 << (m * (m - 1) // 2)):
        reps.add(min(relabel(mask, p, m) for p in perms))
    return sorted(reps)


def test_graph_classes_match_brute_force():
    for m in (2, 3, 4, 5):
        assert graphs_up_to_iso(m) == brute_force_classes(m)


def test_graph_classes_match_propagation_oracle():
    for m in range(MAX_GRAPH_NODES + 1):
        assert graphs_up_to_iso(m) == list(propagated_graph_classes(m)), m


@st.composite
def relabelled_masks(draw):
    m = draw(st.integers(1, MAX_GRAPH_NODES))
    mask = draw(st.integers(0, (1 << (m * (m - 1) // 2)) - 1))
    return m, mask, draw(st.permutations(range(m)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(relabelled_masks())
def test_canonical_form_is_a_relabeling_invariant_class_minimum(case):
    m, mask, perm = case
    form = int(_canonical(np.array([mask]), m)[0])
    assert int(_canonical(np.array([relabel(mask, perm, m)]), m)[0]) == form
    assert form <= mask
    assert form in graphs_up_to_iso(m)


def test_canonical_builds_each_block_table_once():
    # keeping {0..d-1} and {d..k-1} setwise is the full symmetric group for
    # d = 0 and for d = k alike, so the two tables are one
    import bicliff.werner as werner

    for k in range(2, MAX_GRAPH_NODES):
        assert np.array_equal(werner._block_minima(k, k), werner._block_minima(k, 0)), k
    with mock.patch.object(werner, "_block_minima", wraps=werner._block_minima) as tables:
        for m in range(1, MAX_GRAPH_NODES + 1):
            tables.reset_mock()
            _canonical(np.arange(8), m)
            calls = [c.args for c in tables.call_args_list]
            assert sorted(calls) == [(m - 1, d) for d in range(max(m - 1, 1))], m


def test_graph_class_counts():
    for m, want in GRAPH_CLASS_COUNTS.items():
        assert len(graphs_up_to_iso(m)) == want


def test_graph_classes_cache_not_shared():
    classes = graphs_up_to_iso(4)
    want = list(classes)
    classes.append(-1)
    classes[0] = 99
    assert graphs_up_to_iso(4) == want
    assert graphs_up_to_iso(4) is not graphs_up_to_iso(4)


def test_graph_nodes_cap():
    with pytest.raises(ValueError):
        graphs_up_to_iso(8)


# --- (a, b) pairs ---------------------------------------------------------------


def brute_force_ab(m):
    out = []
    for a in range(1 << m):
        for b in range(1 << m):
            if a <= b <= a ^ b:
                out.append((a, b))
    return out


def test_ab_pairs_match_brute_force():
    for m in (1, 2, 3):
        assert sorted(ab_pairs(m)) == sorted(brute_force_ab(m))
        assert count_ab_pairs(m) == len(brute_force_ab(m))


def test_ab_pair_counts_closed_form():
    for m in range(1, 8):
        assert count_ab_pairs(m) == (4**m + 3 * 2**m + 2) // 6
        assert count_ab_pairs(m) == sum(1 for _ in ab_pairs(m))
    assert count_ab_pairs(1) == 2
    assert count_ab_pairs(3) == 15
    assert count_ab_pairs(6) == 715


def test_ab_pairs_in_the_order_of_the_derived_oracle():
    # a Werner cache stores case indices, so the pair order is part of its format
    for m in range(1, 8):
        assert ab_pairs(m) == tuple(ab_pairs_by_top_bit(m)), m


# --- cases and representatives ----------------------------------------------------


def test_case_counts():
    for n, want in CASE_COUNTS.items():
        assert case_count(n) == want
    assert sum(1 for _ in enumerate_cases(4)) == 60


def test_representatives_are_symplectic():
    for case in enumerate_cases(4):
        assert is_symplectic(build_representative(case))


def test_representative_invariances():
    from bicliff.groups import dn_generators

    rng = np.random.default_rng(5)
    cases = list(enumerate_cases(4))
    kn = kn_generators(4).matrices()
    dn = dn_generators(4).matrices()
    for _ in range(10):
        c = cases[int(rng.integers(len(cases)))]
        m = build_representative(c)
        k = kn[int(rng.integers(len(kn)))]
        d = dn[int(rng.integers(len(dn)))]
        assert werner_stats(m @ k, 4) == werner_stats(m, 4)
        assert werner_stats(d @ m, 4) == werner_stats(m, 4)


def test_batched_representatives_match_scalar_reference():
    # every case for n <= 6 in one batch, and a random sample of the n = 8 cases
    rng = np.random.default_rng(8)
    samples = [list(enumerate_cases(n)) for n in range(2, 7)]
    samples.append([case_at(8, int(i)) for i in rng.integers(case_count(8), size=500)])
    for cases in samples:
        n = cases[0].n
        rows = representative_rows(cases, n)
        assert rows.shape == (len(cases), 2 * n)
        assert [tuple(r) for r in rows.tolist()] == [scalar_representative(c).rows for c in cases]
        assert build_representative(cases[-1]) == scalar_representative(cases[-1])
    assert representative_rows([], 3).shape == (0, 6)


def test_trivial_case_is_identity():
    from bicliff.gf2 import SymplecticMatrix

    rep = build_representative(WernerCase(3, 0, 0, 0))
    assert rep == SymplecticMatrix.identity(3)


def test_batch_keys_match_scalar_path():
    for n in (2, 3, 4):
        keys = all_case_keys(n)
        cases = list(enumerate_cases(n))
        assert len(keys) == len(cases)
        rng = np.random.default_rng(n)
        for idx in rng.choice(len(cases), size=min(20, len(cases)), replace=False):
            counts = werner_counts(build_representative(cases[idx]), n)
            got = decode_counts(keys[idx], n)
            assert got[0] == counts[0]
            assert sorted(got[1:]) == sorted(counts[1:])


def _keys_by_pair(n, graphs=None):
    """Key rows of the given graph classes (default: all), one block per (a, b) pair."""
    return all_case_keys(n, graphs).reshape(count_ab_pairs(n - 1), -1, 4)


def test_batch_keys_match_scalar_large_n():
    for n in (5, 8):
        graphs = graphs_up_to_iso(n - 1)
        pairs = list(ab_pairs(n - 1))
        rng = np.random.default_rng(10 * n)
        for _ in range(4):
            p = int(rng.integers(len(pairs)))
            sample = [graphs[int(g)] for g in rng.integers(0, len(graphs), size=3)]
            for e, key in zip(sample, _keys_by_pair(n, sample)[p]):
                case = WernerCase(n, *pairs[p], e)
                counts = werner_counts(build_representative(case), n)
                got = decode_counts(key, n)
                assert got[0] == counts[0]
                assert sorted(got[1:]) == sorted(counts[1:])


def _bincount_pair_keys(n, a, b, graphs=None):
    """Reference keys for one (a, b) pair: per-subset popcounts and bincount.

    Independent of the Walsh-Hadamard kernel: builds each graph's subset
    row-xors, applies the coset's X-shift per subset, histograms identity
    weights with bincount and encodes the histogram as base-129 digits.
    """
    m = n - 1
    if graphs is None:
        graphs = graphs_up_to_iso(m)
    size = 1 << m
    subsets = np.arange(size, dtype=np.uint32)
    row_xors = np.zeros((len(graphs), size), dtype=np.uint32)
    for g, mask in enumerate(graphs):
        rows = adjacency_rows(mask, m)
        for s in range(size):
            acc = 0
            for k in range(m):
                if (s >> k) & 1:
                    acc ^= rows[k]
            row_xors[g, s] = acc
    pop = np.array([bin(s).count("1") for s in range(size)], dtype=np.uint8)
    parity = pop & 1
    powers = np.array([129 ** (n - i) for i in range(n + 1)], dtype=np.uint64)
    b_dot = parity[np.uint32(b) & subsets]
    a_dot = parity[np.uint32(a) & subsets]
    goff = np.arange(len(graphs), dtype=np.int64)[:, None] * (n + 1)
    keys = np.empty((len(graphs), 4), dtype=np.uint64)
    for k, (alpha, beta) in enumerate(((0, 0), (1, 0), (1, 1), (0, 1))):
        addx = (b_dot ^ alpha).astype(np.uint32) * np.uint32(a)
        if beta:
            addx ^= np.uint32(b)
        nonid = pop[(row_xors ^ addx[None, :]) | subsets[None, :]]
        kept = (((b_dot ^ alpha) == 0) & ((a_dot ^ beta) == 0)).astype(np.uint8)
        weights = kept[None, :] + (m - nonid)
        hist = np.bincount(
            (goff + weights).ravel(), minlength=len(graphs) * (n + 1)
        ).reshape(len(graphs), n + 1)
        keys[:, k] = hist.astype(np.uint64) @ powers
    keys[:, 1:] = np.sort(keys[:, 1:], axis=1)
    return keys


def test_pair_keys_match_bincount_reference():
    for n in range(2, 9):
        pairs = list(ab_pairs(n - 1))
        if n <= 6:  # every pair, down to n = 2, where one pair holds two subsets
            sample = range(len(pairs))
        else:
            rng = np.random.default_rng(100 + n)
            sample = [0, len(pairs) - 1, *rng.integers(len(pairs), size=3)]
        keys = _keys_by_pair(n)
        for p in sample:
            assert np.array_equal(keys[p], _bincount_pair_keys(n, *pairs[p])), pairs[p]


def test_keys_at_the_int64_headroom():
    # the empty graph keeps every non-identity count at its smallest, the
    # complete graph on 7 nodes makes them large, and with (0, 0) the base
    # coset's transform entry is the full sum 2^7 * 129^P
    n = 8
    graphs = [0, (1 << 21) - 1]
    assert graphs[1] == graphs_up_to_iso(n - 1)[-1]
    pairs = list(ab_pairs(n - 1))
    keys = _keys_by_pair(n, graphs)
    for p in (0, pairs.index((0, 127)), len(pairs) - 1):
        assert np.array_equal(keys[p], _bincount_pair_keys(n, *pairs[p], graphs)), pairs[p]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_closed_form_keys_match_bincount_on_labelled_graphs(data):
    # any labelled graph masks, canonical or not, under any (a, b) pair: the
    # closed form reads every coset key off the transform, whatever the graph
    n = data.draw(st.integers(2, 8), label="n")
    m = n - 1
    masks = st.integers(0, (1 << (m * (m - 1) // 2)) - 1)
    graphs = data.draw(st.lists(masks, min_size=1, max_size=4), label="graphs")
    pairs = list(ab_pairs(m))
    p = data.draw(st.integers(0, len(pairs) - 1), label="pair")
    keys = all_case_keys(n, graphs).reshape(len(pairs), len(graphs), 4)
    assert np.array_equal(keys[p], _bincount_pair_keys(n, *pairs[p], graphs)), (pairs[p], graphs)


def _labelled_with_top(m, e, prefixes):
    """Masks on m nodes: each prefix graph on the first m-1, with neighbourhood e
    for the last vertex."""
    return [e << (m - 1) * (m - 2) // 2 | prefix for prefix in prefixes]


def test_half_table_matches_full_transform_on_every_small_graph():
    import bicliff.werner as werner

    # every labelled graph on m <= 4 nodes, under every top neighbourhood
    for m in range(1, 5):
        prefixes = range(1 << (m - 1) * (m - 2) // 2)
        for e in range(1 << (m - 1)):
            masks = _labelled_with_top(m, e, prefixes)
            table = werner._half_table(masks, m)
            assert np.array_equal(2 * table, full_key_table(masks, m)), (m, e)
    with pytest.raises(ValueError, match="neighbourhoods"):
        werner._half_table(_labelled_with_top(3, 0, [0]) + _labelled_with_top(3, 1, [0]), 3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_half_table_matches_full_transform_on_labelled_graphs(data):
    import bicliff.werner as werner

    m = data.draw(st.integers(5, 7), label="m")
    e = data.draw(st.integers(0, (1 << (m - 1)) - 1), label="e")
    prefix = st.integers(0, (1 << (m - 1) * (m - 2) // 2) - 1)
    prefixes = data.draw(st.lists(prefix, min_size=1, max_size=3), label="prefixes")
    masks = _labelled_with_top(m, e, prefixes)
    assert np.array_equal(2 * werner._half_table(masks, m), full_key_table(masks, m))


def test_xor_view_matches_take():
    import bicliff.werner as werner

    rng = np.random.default_rng(0)
    for k in range(7):
        table = rng.integers(1 << 30, size=(1 << k, 1 << k, 2))
        bits = table.reshape((2,) * (2 * k) + (2,))
        index = np.arange(1 << k)
        for e in range(1 << k):
            for axis in (0, 1):
                view = werner._xor_view(bits, e, axis * k, k)
                assert np.shares_memory(view, table)
                want = np.take(table, index ^ e, axis)
                assert np.array_equal(view.reshape(table.shape), want), (k, e, axis)


# --- deduplication -----------------------------------------------------------------


def _unique_rows_first(keys):
    return np.sort(np.unique(keys, axis=0, return_index=True)[1])


def _case_indices(n):
    return [p.case_index for p in distinct_protocols(n)]


def test_hashed_dedup_matches_row_unique():
    for n in range(2, 7):
        assert _case_indices(n) == _unique_rows_first(all_case_keys(n)).tolist(), n


@pytest.mark.parametrize("block", [1, 3, 7])
def test_dedup_across_blocks_matches_row_unique(monkeypatch, block):
    import bicliff.werner as werner

    # tiny graph blocks put most duplicates in different blocks, so the merge
    # of the block survivors does nearly all of the work
    want = {n: _unique_rows_first(all_case_keys(n)).tolist() for n in range(2, 7)}
    monkeypatch.setattr(werner, "_BLOCK_GRAPHS", block)
    for n, first in want.items():
        assert _case_indices(n) == first, n


def test_distinct_protocols_stream_graph_blocks(monkeypatch):
    # every key row the enumeration reads comes from a call on at most one
    # block of graph classes, all with one top neighbourhood, and the calls
    # together cover every case once
    import bicliff.werner as werner

    calls = []
    keys = werner.all_case_keys

    def spy(n, graphs=None):
        out = keys(n, graphs)
        calls.append((list(graphs), len(out)))
        return out

    monkeypatch.setattr(werner, "all_case_keys", spy)
    assert len(werner.distinct_protocols(7)) == DISTINCT_COUNTS[7]
    top = 10  # edges among nodes 0..4; the higher bits are node 5's neighbourhood
    runs = [len(list(run)) for _, run in itertools.groupby(graphs_up_to_iso(6), lambda g: g >> top)]
    assert len(calls) == sum(-(-run // werner._BLOCK_GRAPHS) for run in runs)
    assert max(len(graphs) for graphs, _ in calls) <= werner._BLOCK_GRAPHS
    assert all(len({g >> top for g in graphs}) == 1 for graphs, _ in calls)
    assert sum(rows for _, rows in calls) == case_count(7)


def _first_rows_reference(rows):
    firsts = {}
    for i, row in enumerate(rows):
        firsts.setdefault(row.tobytes(), i)
    return list(firsts.values())


_ROW_ENTRIES = {
    "int64": st.integers(-2, 2) | st.sampled_from([-(2**63), 2**63 - 1]),
    # equal as floats but not as bytes: 0.0 and -0.0; NaNs of either sign
    "float64": st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf, np.nan, -np.nan]),
}


@st.composite
def repeated_rows(draw):
    """(N, 4, d) int64 or float64 arrays drawn from a few rows, with repeats."""
    dtype = draw(st.sampled_from(sorted(_ROW_ENTRIES)))
    width = 4 * draw(st.integers(1, 3))
    row = st.lists(_ROW_ENTRIES[dtype], min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return np.array(picks, dtype=dtype).reshape(len(picks), 4, -1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(repeated_rows())
def test_first_rows_matches_tobytes_reference(rows):
    assert first_rows(rows).tolist() == _first_rows_reference(rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(repeated_rows())
def test_first_rows_matches_tobytes_reference_when_every_hash_collides(rows):
    # a zero hash base maps every row to 0, so only the exact pass is left
    import bicliff.werner as werner

    with mock.patch.object(werner, "_HASH_MIX", 0):
        assert first_rows(rows).tolist() == _first_rows_reference(rows)


def test_distinct_protocol_counts_small(protocols_for):
    for n in (2, 3, 4, 5):
        assert len(protocols_for(n)) == DISTINCT_COUNTS[n]


def test_protocols_carry_consistent_stats(protocols_for):
    for p in protocols_for(3):
        assert p.stats == werner_stats(p.rep, 3)
        assert counts_key(p.counts) == counts_key(werner_counts(p.rep, 3))


def test_distinct_stats_are_distinct(protocols_for):
    seen = {counts_key(p.counts) for p in protocols_for(4)}
    assert len(seen) == len(protocols_for(4))


def test_first_encounter_case_order(protocols_for):
    indices = [p.case_index for p in protocols_for(4)]
    assert indices == sorted(indices)
    assert indices[0] == 0


def test_jobs_invariance():
    from bicliff.werner import distinct_protocols

    a = distinct_protocols(3, jobs=1)
    b = distinct_protocols(3, jobs=2)
    assert [(p.case_index, p.stats) for p in a] == [(p.case_index, p.stats) for p in b]


@pytest.mark.parametrize("jobs", [1, 2])
def test_distinct_protocols_independent_of_block_size(monkeypatch, jobs):
    import bicliff.werner as werner

    def summary(n):
        return [(p.case_index, p.counts) for p in distinct_protocols(n, jobs=jobs)]

    default = {n: (all_case_keys(n), summary(n)) for n in (5, 6)}
    for block in (1, 3, 7):  # 11 and 34 graph classes; 51 and 187 (a, b) pairs
        monkeypatch.setattr(werner, "_BLOCK_GRAPHS", block)
        monkeypatch.setattr(werner, "_BLOCK_PAIRS", block)
        for n, (keys, want) in default.items():
            assert np.array_equal(all_case_keys(n), keys), (n, block)
            assert summary(n) == want, (n, block)


def test_n2_case_stats_distinct(protocols_for):
    ps = protocols_for(2)
    assert len(ps) == 2
    assert ps[0].stats != ps[1].stats


# --- best fidelity ------------------------------------------------------------------


def test_best_protocols_match_reference(protocols_for, best_for):
    for n in (2, 3, 4, 5):
        res = best_for(n)
        assert res.dominant
        assert res.protocol.stats.p_suc == best_p_poly(n)
        assert res.protocol.stats.f_num == best_f_poly(n)


def _unsliced_best_curve(rows, n, grid):
    """`best_curve` with every curve's F_out in one `CurveSet`."""
    keys = np.concatenate([rows.sum(axis=1), rows[:, 0]], axis=1)
    heads = first_rows(keys)
    curves = CurveSet(rows[heads], n, grid)
    row, dominant = pick_curve(curves.f / curves.p)
    return np.flatnonzero((keys == keys[heads[row]]).all(axis=1)).tolist(), dominant


@pytest.mark.parametrize("size", [1, 3, 7])
def test_best_curve_independent_of_slice_size(monkeypatch, protocols_for, size):
    import bicliff.werner as werner
    from bicliff.dejmps import candidate_rows

    # the default grid has a dominant curve; from F = 0.26 up, curves cross
    grids = (default_f_grid(), np.linspace(0.26, 1.0, 38))
    families = [(werner_coeff_rows([p.counts for p in protocols_for(n)], n), n) for n in range(2, 8)]
    families += [(candidate_rows(n), n) for n in range(2, 7)]
    monkeypatch.setattr(werner, "_CURVE_SLICE", size)
    crossing = 0
    for rows, n in families:
        for grid in grids:
            tied, dominant = best_curve(rows, n, grid)
            assert (tied.tolist(), dominant) == _unsliced_best_curve(rows, n, grid)
            crossing += not dominant
    assert crossing  # the non-dominant pick is exercised too


def _value_at(poly, x):
    return functools.reduce(lambda acc, c: acc * x + c, reversed(poly), 0)


def _remainder(a, b):
    """Remainder of a by b, both power-ascending coefficient lists."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        for i, c in enumerate(b, len(a) - len(b)):
            a[i] -= q * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _positive_inside(poly, lo, hi) -> bool:
    """Whether a power-ascending polynomial is positive on the open interval
    (lo, hi), decided exactly: its roots at the ends are divided out, Sturm's
    theorem counts the roots left inside, and with none it has the sign it
    has at the midpoint."""
    if _value_at(poly, (lo + hi) / 2) <= 0:
        return False
    poly = np.trim_zeros(poly, "b")
    for end in (lo, hi):
        while _value_at(poly, end) == 0:  # divide by (F - end), Horner's way
            poly = list(itertools.accumulate(reversed(poly[1:]), lambda acc, c: acc * end + c))
            poly.reverse()
    chain = [poly, [k * c for k, c in enumerate(poly)][1:]]
    while rest := _remainder(chain[-2], chain[-1]):
        chain.append([-c for c in rest])

    def sign_changes(x):
        signs = [v > 0 for v in (_value_at(q, x) for q in chain) if v != 0]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return sign_changes(lo) == sign_changes(hi)


@pytest.mark.parametrize("n", range(2, 8))
def test_best_protocol_exactly_dominant_on_open_interval(n, protocols_for, best_for):
    # the grid pick lies strictly above every other distinct curve inside
    # (1/2, 1): f_b p_j - f_j p_b > 0 there, with p and f the integer rows
    # 3^n p_suc and 3^n f_num
    def curve(protocol):
        rows = werner_coeff_rows([protocol.counts], n)[0]
        return tuple(rows.sum(axis=0).tolist()), tuple(rows[0].tolist())

    assert best_for(n).dominant
    p_b, f_b = curve(best_for(n).protocol)
    others = {curve(protocol) for protocol in protocols_for(n)} - {(p_b, f_b)}
    assert others
    for p_j, f_j in others:
        gap = np.convolve(f_b, p_j) - np.convolve(f_j, p_b)
        assert _positive_inside(gap.tolist(), Fraction(1, 2), Fraction(1)), (p_j, f_j)


def test_pick_curve_dominant():
    values = np.array([
        [0.5, 0.60, 0.70],
        [0.5 + 1e-13, 0.65, 0.80],  # ties curve 0 at the first point
        [0.4, 0.65, 0.80 - 1e-13],  # within the tolerance at the last point
    ])
    assert pick_curve(values) == (1, True)


def test_pick_curve_crossing():
    values = np.array([
        [0.9, 0.7, 0.5],
        [0.1, 0.7, 0.6],
        [0.1, 0.7, 0.6 + 1e-13],  # ties curve 1 at the last point, which keeps the first
    ])
    assert pick_curve(values) == (1, False)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_case_at_is_enumeration_order(n):
    cases = list(enumerate_cases(n))
    assert [case_at(n, i) for i in range(len(cases))] == cases
    for index in (-1, len(cases)):
        with pytest.raises(ValueError, match=f"case index {index} is not below {len(cases)}"):
            case_at(n, index)


def test_protocol_derives_case_and_representative(protocols_for):
    # a protocol stores its case index and histograms; the rest follows
    for p in protocols_for(4):
        assert [f.name for f in dataclasses.fields(p)] == ["n", "counts", "case_index"]
        assert p.source == case_at(4, p.case_index)
        assert p.rep == build_representative(p.source)
        assert counts_key(werner_counts(p.rep, 4)) == counts_key(p.counts)
