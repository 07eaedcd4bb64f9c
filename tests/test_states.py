from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliff.circuits import circuit_to_symplectic
from bicliff.dejmps import ROTATION_WORDS, step_table
from bicliff.gf2 import (
    CNOT,
    SymplecticMatrix,
    gate_matrix,
    random_symplectic,
    symplectic_inner,
)
from bicliff.groups import coset_key
from bicliff.ratpoly import RationalPolynomial
from bicliff.states import (
    BellDiagonalState,
    DistStats,
    base,
    coset_histograms,
    coset_sums,
    counts_key,
    decode_counts,
    encode_counts,
    leading_infidelity_term,
    numeric_stats,
    pillars,
    preimage_index,
    rows_to_polys,
    stats_from_counts,
    stats_in_epsilon,
    vector_paulis,
    werner_coeff_rows,
    werner_counts,
    werner_keys,
    werner_stats,
    _werner_term_matrix,
)
from _reference import EXAMPLE_PAIR, best_f_poly, best_p_poly
from _scalar_reference import (
    LEAF,
    TreePlan,
    plan_to_circuit,
    preimage_oracle,
    rref,
    werner_state,
    werner_term_basis,
)


def symplectic_complement(vectors, n):
    """Brute-force complement over all 4^n vectors (test oracle)."""
    return sorted(
        w
        for w in range(1 << (2 * n))
        if all(symplectic_inner(v, w, n) == 0 for v in vectors)
    )


# --- base and pillars ----------------------------------------------------------


def test_base_small():
    assert base(1) == (0,)
    assert set(base(2)) == {0b0000, 0b1000}
    assert len(base(4)) == 8
    n = 4
    for v in base(4):
        # identity on pair 1, I or Z elsewhere
        assert vector_paulis(v, n)[0] == 0
        assert all(p in (0, 3) for p in vector_paulis(v, n))


def test_pillars_small():
    assert set(pillars(1)) == {0, 1, 2, 3}
    assert len(pillars(2)) == 8
    n = 2
    for v in pillars(2):
        assert all(p in (0, 3) for p in vector_paulis(v, n)[1:])


def test_pillars_are_complement_of_base():
    for n in (2, 3, 4):
        assert sorted(pillars(n)) == symplectic_complement(base(n), n)
        # complement is an involution: base = complement of pillars
        assert sorted(base(n)) == symplectic_complement(pillars(n), n)


# --- states ---------------------------------------------------------------------


def test_state_validation():
    with pytest.raises(ValueError):
        BellDiagonalState(1, np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        BellDiagonalState(1, np.array([0.5, 0.5, 0.1, 0.1]))
    with pytest.raises(ValueError):
        BellDiagonalState(2, np.ones(4) / 4)


def test_state_rejects_non_finite_and_malformed_pairs():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            BellDiagonalState(1, np.array([bad, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        BellDiagonalState(1, np.array([np.nan, 0.5, 0.25, 0.25]))
    for pair in ((0.7, 0.1, 0.1, 0.1, 0.0), (0.7, 0.2, 0.1)):
        with pytest.raises(ValueError):
            BellDiagonalState.from_pairs([pair])


def test_product_state_indexing():
    st = BellDiagonalState.from_pairs([EXAMPLE_PAIR, (0.6, 0.2, 0.1, 0.1)])
    # v = X on pair 1, Z on pair 2: bits x1, z2 -> 0b1001
    assert np.isclose(st.probs[0b1001], 0.15 * 0.1)
    assert np.isclose(st.probs.sum(), 1.0)


def test_werner_state():
    st = werner_state(2, 0.7)
    assert np.isclose(st.probs[0], 0.49)
    assert np.isclose(st.probs[0b0001], 0.1 * 0.7)  # X on pair 1, I on pair 2


# --- numeric statistics -----------------------------------------------------------


def test_identity_statistics_product_state():
    st = BellDiagonalState.from_pairs([EXAMPLE_PAIR, EXAMPLE_PAIR])
    stats = numeric_stats(SymplecticMatrix.identity(2), st)
    assert np.isclose(stats.p_suc, 0.75)
    assert np.isclose(stats.f_out, 0.7)


def test_identity_keeps_first_pair_marginal():
    rng = np.random.default_rng(2)
    for _ in range(5):
        pairs = rng.dirichlet(np.ones(4), size=3)
        st = BellDiagonalState.from_pairs(pairs)
        stats = numeric_stats(SymplecticMatrix.identity(3), st)
        assert np.isclose(stats.f_out, pairs[0][0])


def test_dejmps_representative_at_F07(protocols_for, best_for):
    best = best_for(2)
    st = werner_state(2, 0.7)
    stats = numeric_stats(best.protocol.rep, st)
    # oracle: the known optimal polynomials evaluated at 0.7
    p = float(best_p_poly(2)(Fr(7, 10)))
    f = float(best_f_poly(2)(Fr(7, 10)))
    assert np.isclose(stats.p_suc, p) and np.isclose(p, 0.68)
    assert np.isclose(stats.f_out, f / p)


def test_coset_partition_properties():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        st = werner_state(n, 0.8)
        for _ in range(20):
            m = random_symplectic(n, rng)
            counts = werner_counts(m, n)
            assert all(sum(h) == 1 << (n - 1) for h in counts)
            stats = numeric_stats(m, st)
            total = stats.f_num + sum(stats.fi_nums)
            assert np.isclose(total, stats.p_suc, atol=1e-12)


def _identity_count(v, n):
    return sum(1 for i in range(n) if not (v >> i) & 1 and not (v >> (n + i)) & 1)


def test_preimage_kernel_matches_brute_force_oracle():
    # stacked leading dimensions (3, 4): every matrix is read at its own index
    rng = np.random.default_rng(2103)
    for n in range(1, 5):
        ms = [[random_symplectic(n, rng) for _ in range(4)] for _ in range(3)]
        rows = np.array([[m.rows for m in line] for line in ms], dtype=np.uint64)
        index, hists = preimage_index(rows, n), coset_histograms(rows, n)
        assert index.shape == (3, 4, 4, 1 << (n - 1)) and hists.shape == (3, 4, 4, n + 1)
        state = BellDiagonalState(n, rng.dirichlet(np.ones(4**n)))
        sums = state.probs[index].sum(axis=-1)
        for a, line in enumerate(ms):
            for b, m in enumerate(line):
                cosets = preimage_oracle(m, n)
                assert [sorted(c) for c in index[a, b].tolist()] == list(cosets)
                want = tuple(
                    tuple(sum(1 for v in c if _identity_count(v, n) == w) for w in range(n + 1))
                    for c in cosets
                )
                assert hists[a, b].tolist() == list(map(list, want))
                assert werner_counts(m, n) == want
                assert coset_key(m) == rref(cosets[0])
                mass = [state.probs[c].sum() for c in cosets]
                assert np.allclose(coset_sums(m, state), mass, rtol=0, atol=1e-14)
                assert coset_sums(m, state) == tuple(sums[a, b].tolist())


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    dtype=st.sampled_from([np.uint16, np.uint64]),
)
def test_werner_keys_are_encoded_histograms(n, seed, count, dtype):
    # werner_keys is the one map from matrices to statistics keys; it must
    # agree with encoding the histograms, for one row and for a stack
    rng = np.random.default_rng(seed)
    rows = np.array([random_symplectic(n, rng).rows for _ in range(count)], dtype=dtype)
    want = encode_counts(coset_histograms(rows, n))
    assert werner_keys(rows, n).tolist() == want.tolist()
    assert werner_keys(rows[0], n).tolist() == want[0].tolist()
    assert werner_keys(rows.reshape(1, count, 2 * n), n).tolist() == [want.tolist()]


def test_step_table_matches_brute_force_oracle():
    for label in ROTATION_WORDS:
        m = circuit_to_symplectic(plan_to_circuit(TreePlan(label, LEAF, LEAF), 2))
        want = [sorted(vector_paulis(v, 2) for v in c) for c in preimage_oracle(m, 2)]
        assert [sorted(entry) for entry in step_table(label)] == want, label


# --- Werner polynomial statistics ---------------------------------------------------


def test_identity_werner_stats():
    st = werner_stats(SymplecticMatrix.identity(2), 2)
    assert st.p_suc == RationalPolynomial([Fr(1, 3), Fr(2, 3)])
    assert st.f_num == RationalPolynomial([0, Fr(1, 3), Fr(2, 3)])


def test_best_known_polynomials(best_for):
    for n in (2, 3):
        st = best_for(n).protocol.stats
        assert st.p_suc == best_p_poly(n)
        assert st.f_num == best_f_poly(n)


def test_unit_values_at_perfect_input():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        for _ in range(10):
            st = werner_stats(random_symplectic(n, rng), n)
            assert st.p_suc(1) == 1
            assert st.f_num(1) == 1


def test_polynomial_vs_numeric_engines():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        for _ in range(15):
            m = random_symplectic(n, rng)
            poly = werner_stats(m, n)
            f = float(rng.uniform(0.25, 1.0))
            num = numeric_stats(m, werner_state(n, f))
            ev = poly.evaluate(f)
            assert np.isclose(ev.p_suc, num.p_suc, atol=1e-12)
            assert np.isclose(ev.f_num, num.f_num, atol=1e-12)
            for a, b in zip(ev.fi_nums, num.fi_nums):
                assert np.isclose(a, b, atol=1e-12)


def test_stats_decomposition_exact():
    rng = np.random.default_rng(13)
    for _ in range(10):
        st = werner_stats(random_symplectic(3, rng), 3)
        assert st.f_num + sum(st.fi_nums, RationalPolynomial()) == st.p_suc


# --- epsilon substitution and leading term --------------------------------------


def test_eps_form_n2(best_for):
    st = best_for(2).protocol.stats
    assert stats_in_epsilon(st.p_suc) == RationalPolynomial([1, Fr(-4, 3), Fr(8, 9)])
    assert stats_in_epsilon(st.f_num) == RationalPolynomial([1, -2, Fr(10, 9)])


def test_eps_form_constant():
    p = RationalPolynomial.constant(Fr(2, 5))
    assert stats_in_epsilon(p) == p


def test_leading_term_against_series_oracle(best_for):
    import sympy

    e = sympy.Symbol("e")
    for n in (2, 4, 5):
        st = best_for(n).protocol.stats
        k, c = leading_infidelity_term(st)
        f = sum(sympy.Rational(q.numerator, q.denominator) * e**i
                for i, q in enumerate(stats_in_epsilon(st.f_num).coeffs))
        p = sum(sympy.Rational(q.numerator, q.denominator) * e**i
                for i, q in enumerate(stats_in_epsilon(st.p_suc).coeffs))
        series = sympy.series(f / p, e, 0, k + 1).removeO()
        expect = 1 - sympy.Rational(c.numerator, c.denominator) * e**k
        assert sympy.expand(series - expect) == 0


def test_leading_term_requires_unit_normalisation():
    bad = DistStats(
        RationalPolynomial([Fr(1, 2)]),
        RationalPolynomial([Fr(1, 2)]),
        (RationalPolynomial(), RationalPolynomial(), RationalPolynomial()),
    )
    with pytest.raises(ValueError):
        leading_infidelity_term(bad)


def test_counts_roundtrip_key():
    m = gate_matrix(CNOT(1, 2), 2)
    counts = werner_counts(m, 2)
    key = counts_key(counts)
    assert key[0] == counts[0]
    assert stats_from_counts(counts, 2).p_suc(1) == 1


@st.composite
def histogram_pairs(draw):
    """(n, h, g): two sets of four coset histograms of n <= 8 pairs, bins <= 2^(n-1).

    g is often h with its X/Y/Z histograms permuted, or h with one bin moved
    by one, so that equal and nearly equal keys both come up.
    """
    n = draw(st.integers(1, 8))
    top = 1 << (n - 1)
    hist = st.lists(st.integers(0, top), min_size=n + 1, max_size=n + 1)
    h = [draw(hist) for _ in range(4)]
    kind = draw(st.sampled_from(["permuted", "nudged", "fresh"]))
    if kind == "permuted":
        g = [h[0], *draw(st.permutations(h[1:]))]
    elif kind == "nudged":
        g = [list(x) for x in h]
        k, w = draw(st.integers(0, 3)), draw(st.integers(0, n))
        g[k][w] += 1 if g[k][w] < top else -1
    else:
        g = [draw(hist) for _ in range(4)]
    return n, h, g


@settings(derandomize=True, max_examples=300, deadline=None)
@given(histogram_pairs())
def test_counts_codec(pair):
    n, h, g = pair
    keys = encode_counts([h, g])  # a stack encodes row by row
    assert keys.dtype == np.uint64 and keys.shape == (2, 4)
    assert np.array_equal(keys[0], encode_counts(h)) and np.array_equal(keys[1], encode_counts(g))
    key_h, key_g = counts_key(h), counts_key(g)
    # decoding undoes encoding, the X/Y/Z histograms sorted as in counts_key
    flat_h, flat_g = (tuple(map(tuple, (k[0], *k[1]))) for k in (key_h, key_g))
    assert decode_counts(keys[0], n) == flat_h and decode_counts(keys[1], n) == flat_g
    # a stack decodes row by row, each row as the one-row call gives it
    assert decode_counts(keys, n) == (flat_h, flat_g)
    # equal rows exactly when the counts_keys are equal
    assert np.array_equal(keys[0], keys[1]) == (key_h == key_g)
    # numbers order like the histogram tuples, entry by entry
    for x, y, u, v in zip(keys[0].tolist(), keys[1].tolist(), flat_h, flat_g):
        assert (x < y, x == y) == (u < v, u == v)


def _fraction_counts_to_poly(hist, n):
    """Reference: the histogram's polynomial as a sum of exact Fraction terms."""
    acc = RationalPolynomial()
    for w, c in enumerate(hist):
        if c:
            acc = acc + c * werner_term_basis(n)[w]
    return acc


def test_werner_term_matrix_matches_fraction_products():
    # row w is 3^n * F^w * ((1-F)/3)^(n-w), compared exactly with Fractions
    for n in range(1, 17):
        expected = [
            [c * 3**n for c in p.coeffs] + [0] * (n + 1 - len(p.coeffs))
            for p in werner_term_basis(n)
        ]
        terms = _werner_term_matrix(n)
        assert terms.dtype == np.int64 and terms.tolist() == expected, n


def test_integer_counts_to_poly_matches_fraction_sum():
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        hists = [[0] * (n + 1), [2 ** (n - 1)] * (n + 1)]
        hists += [rng.integers(0, 2 ** (n - 1) + 1, size=n + 1) for _ in range(25)]
        polys = rows_to_polys(werner_coeff_rows(hists, n), n)
        assert polys == tuple(_fraction_counts_to_poly(hist, n) for hist in hists), n
