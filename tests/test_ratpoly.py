from fractions import Fraction as Fr

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliff.ratpoly import RationalPolynomial, format_poly, poly_from_strings


def to_sympy(p: RationalPolynomial, x):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p.coeffs))


def test_trailing_zeros_trimmed():
    p = RationalPolynomial([1, 2, 0, 0])
    assert p.coeffs == (Fr(1), Fr(2))
    assert p.degree == 1
    assert RationalPolynomial([0, 0]).is_zero()


def test_evaluation_exact_and_float():
    p = RationalPolynomial([Fr(5, 9), Fr(-4, 9), Fr(8, 9)])
    assert p(Fr(7, 10)) == Fr(17, 25)  # 0.68 exactly
    assert p(1) == 1
    assert abs(p(0.7) - 0.68) < 1e-15


def test_substitute_one_minus_matches_sympy():
    x, e = sympy.symbols("x e")
    p = RationalPolynomial([Fr(5, 9), Fr(-4, 9), Fr(8, 9)])
    got = p.substitute_one_minus()
    want = sympy.expand(to_sympy(p, x).subs(x, 1 - e))
    assert sympy.expand(to_sympy(got, e) - want) == 0
    assert got.coeffs == (Fr(1), Fr(-4, 3), Fr(8, 9))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.fractions(-10, 10, max_denominator=50), min_size=1, max_size=10))
def test_binomial_substitution_matches_sympy(coeffs):
    # degrees 0..9: the binomial sum equals sympy's expansion of p(1 - y)
    x, y = sympy.symbols("x y")
    p = RationalPolynomial(coeffs)
    want = sympy.Poly(sympy.sympify(to_sympy(p, x)).subs(x, 1 - y), y).all_coeffs()[::-1]
    assert p.substitute_one_minus() == RationalPolynomial(Fr(c.p, c.q) for c in want)


def test_substitute_constant_unchanged():
    p = RationalPolynomial([Fr(3, 4)])
    assert p.substitute_one_minus() == p


def test_lowest_order():
    assert RationalPolynomial([0, 0, Fr(2, 3), 1]).lowest_order() == (2, Fr(2, 3))
    assert RationalPolynomial().lowest_order() is None


def test_string_roundtrip():
    p = RationalPolynomial([Fr(1, 9), Fr(-2, 9), Fr(10, 9)])
    assert poly_from_strings([str(c) for c in p.coeffs]) == p


def test_format():
    p = RationalPolynomial([Fr(5, 9), Fr(-4, 9), Fr(8, 9)])
    assert format_poly(p) == "8/9*F^2 - 4/9*F + 5/9"
    assert format_poly(RationalPolynomial()) == "0"
    assert format_poly(RationalPolynomial([0, 1])) == "F"


def test_hash_and_order_key():
    a = RationalPolynomial([Fr(1, 2)])
    b = RationalPolynomial([Fr(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a.sort_key() < RationalPolynomial([Fr(2, 3)]).sort_key()
