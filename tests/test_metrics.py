from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliff.metrics import (
    CurveSet,
    _xyz_order,
    MetricPoint,
    hashing_yield,
    ree_bell_diagonal,
    ree_product,
    shannon_entropy,
    target_rate,
)
from bicliff.ratpoly import RationalPolynomial
from bicliff.states import DistStats, werner_coeff_rows
from bicliff.dejmps import candidate_rows, concatenated_candidates
from bicliff.werner import default_f_grid
from _reference import DIQKD_THRESHOLD
from _scalar_reference import poly_on_grid


def stats_of(p_suc, coeffs):
    f, f1, f2, f3 = (p_suc * c for c in coeffs)
    return DistStats.from_coset_sums(f, f1, f2, f3)


def test_entropy_values():
    assert shannon_entropy((1, 0, 0, 0)) == 0
    assert shannon_entropy((0.25, 0.25, 0.25, 0.25)) == 2
    assert np.isclose(shannon_entropy((0.75, 0.25, 0, 0)), 0.8112781244591328)
    with pytest.raises(ValueError):
        shannon_entropy((1.0, -0.1, 0.05, 0.05))
    with pytest.raises(ValueError):
        shannon_entropy((0.5, 0.2, 0.2, 0.2))


def test_hashing_yield():
    perfect = stats_of(1.0, (1, 0, 0, 0))
    assert np.isclose(hashing_yield(perfect, 4), 0.25)
    noisy = stats_of(0.9, (0.25, 0.25, 0.25, 0.25))
    assert hashing_yield(noisy, 2) == 0.0  # clamped
    zero = DistStats.from_coset_sums(0.0, 0.0, 0.0, 0.0)
    assert hashing_yield(zero, 3) == 0.0


def test_yield_is_one_over_n_at_perfect_input(best_for):
    for n in (2, 4):
        st = best_for(n).protocol.stats.evaluate(1.0)
        assert np.isclose(hashing_yield(st, n), 1.0 / n)


def test_ree_values():
    assert ree_bell_diagonal((1, 0, 0, 0)) == 1.0
    assert ree_bell_diagonal((0.5, 0.5, 0, 0)) == 0.0
    assert np.isclose(ree_bell_diagonal((0.75, 0.25, 0, 0)), 0.18872187554086717)


def test_ree_product():
    perfect = stats_of(1.0, (1, 0, 0, 0))
    assert np.isclose(ree_product(perfect), 1.0)
    zero = DistStats.from_coset_sums(0.0, 0.0, 0.0, 0.0)
    assert ree_product(zero) == 0.0


def _poly_sets(protocols_for, ns):
    return {
        n: [(p.case_index, p.stats) for p in protocols_for(n)] for n in ns
    }


def test_target_rate_above_threshold(protocols_for):
    sets = _poly_sets(protocols_for, (2, 3))
    point = target_rate(0.95, DIQKD_THRESHOLD, sets)
    assert point == MetricPoint(0.95, 1, 1.0, "none")


def test_target_rate_unreachable(protocols_for):
    sets = _poly_sets(protocols_for, (2, 3))
    point = target_rate(0.55, 0.999, sets)
    assert point.value == 0.0
    # oracle: no n<=3 protocol reaches 0.999 from 0.55
    for n in (2, 3):
        for _, st in sets[n]:
            p = st.p_suc(0.55)
            assert p <= 0 or st.f_num(0.55) / p < 0.999


def test_target_rate_monotone_in_input(protocols_for):
    sets = _poly_sets(protocols_for, (2, 3, 4))
    values = [
        target_rate(f, DIQKD_THRESHOLD, sets).value
        for f in (0.80, 0.85, 0.90, 0.94)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_superset_never_worse(protocols_for):
    # the full protocol set is a superset of the concatenated family
    full = _poly_sets(protocols_for, (4,))
    dejmps = {
        4: [
            (i, DistStats.from_coset_sums(*key))
            for i, key in enumerate(concatenated_candidates(4))
        ]
    }
    for f in (0.7, 0.85):
        assert (
            target_rate(f, DIQKD_THRESHOLD, full).value
            >= target_rate(f, DIQKD_THRESHOLD, dejmps).value - 1e-12
        )
        full_best = max(
            hashing_yield(st.evaluate(f), 4) for _, st in full[4]
        )
        dj_best = max(hashing_yield(st.evaluate(f), 4) for _, st in dejmps[4])
        assert full_best >= dj_best - 1e-12


def _assert_curves_match_stats(coeffs, n, grid):
    """CurveSet's p, f and fis are bit-equal to float Horner on the DistStats polynomials."""
    curves = CurveSet(coeffs, n, grid)
    fis = curves.fis()
    for i, protocol in enumerate(coeffs.tolist()):
        polys = [RationalPolynomial(Fraction(c, 3**n) for c in row) for row in protocol]
        stats = DistStats.from_coset_sums(*polys)
        assert curves.p[i].tobytes() == poly_on_grid(stats.p_suc, grid).tobytes()
        assert curves.f[i].tobytes() == poly_on_grid(stats.f_num, grid).tobytes()
        for k, q in enumerate(stats.fi_nums):
            assert fis[i, k].tobytes() == poly_on_grid(q, grid).tobytes()


@st.composite
def coset_rows(draw):
    """(coeffs, n): random (protocols, 4, n+1) coset rows over 3^n, n <= 8.

    Some protocols get two X/Y/Z rows that share a prefix, one ending in zeros
    and the other in a negative coefficient: sorting the trimmed rows puts the
    first one first, sorting zero-padded rows the second.
    """
    n = draw(st.integers(1, 8))
    width, bound = n + 1, 3**n
    coeff = st.integers(-bound, bound)
    row = st.lists(coeff, min_size=width, max_size=width)
    protocols = []
    for _ in range(draw(st.integers(1, 5))):
        base, *rest = (draw(row) for _ in range(4))
        if draw(st.booleans()):
            cut = draw(st.integers(0, n))
            shorter = rest[0][:cut] + [0] * (width - cut)
            longer = shorter.copy()
            longer[cut] = draw(st.integers(-bound, -1))
            rest = draw(st.permutations([shorter, longer, rest[2]]))
        protocols.append([base, *rest])
    return np.array(protocols, dtype=np.int64), n


@settings(derandomize=True, max_examples=200, deadline=None)
@given(coset_rows(), st.lists(st.floats(0, 1), min_size=1, max_size=6))
def test_curve_set_matches_polynomial_stats(rows, points):
    coeffs, n = rows
    _assert_curves_match_stats(coeffs, n, np.array(points))


def test_curve_set_matches_real_families(protocols_for):
    grid = default_f_grid()
    for n in range(2, 8):
        coeffs = werner_coeff_rows([p.counts for p in protocols_for(n)], n)
        _assert_curves_match_stats(coeffs, n, grid)
        _assert_curves_match_stats(candidate_rows(n), n, grid)


def _trim_zeros_order(rest: np.ndarray) -> list:
    """The X/Y/Z order of each protocol, rows compared as `np.trim_zeros` trims them."""
    return [sorted(range(3), key=lambda k: np.trim_zeros(r[k], "b").tolist()) for r in rest]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(coset_rows())
def test_xyz_order_matches_trim_zeros_on_random_rows(rows):
    coeffs, _ = rows
    assert _xyz_order(coeffs[:, 1:]).tolist() == _trim_zeros_order(coeffs[:, 1:])


def test_xyz_order_matches_trim_zeros_on_real_families(protocols_for):
    for n in range(2, 9):
        werner = werner_coeff_rows([p.counts for p in protocols_for(n)], n)
        for coeffs in (werner, candidate_rows(n)):
            assert _xyz_order(coeffs[:, 1:]).tolist() == _trim_zeros_order(coeffs[:, 1:]), n
