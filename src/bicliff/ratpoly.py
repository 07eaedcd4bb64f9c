"""Univariate polynomials with exact rational coefficients.

Coefficients are `fractions.Fraction` values indexed by power, with trailing
zeros trimmed, so two polynomials are equal iff their coefficient tuples are
equal.  Python's Fraction is arbitrary precision and auto-reduced, which makes
overflow impossible; the enumeration hot paths work on integer count vectors
and only build polynomials for the (few) distinct results.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class RationalPolynomial:
    """An immutable polynomial sum_k coeffs[k] * x^k over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "RationalPolynomial":
        return cls((Fraction(c),))

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPolynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for Fraction/int arguments."""
        acc = Fraction(0) if isinstance(x, (Fraction, int)) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Float Horner evaluation at every point of a float array."""
        out = np.zeros_like(grid)
        for c in reversed(self.coeffs):
            out = out * grid + float(c)
        return out

    def substitute_one_minus(self) -> "RationalPolynomial":
        """Exact re-expansion of p(1 - y) as a polynomial in y."""
        one_minus = RationalPolynomial((Fraction(1), Fraction(-1)))
        acc = RationalPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * one_minus + RationalPolynomial.constant(c)
        return acc

    def lowest_order(self):
        """(k, c) for the lowest-power nonzero term, or None if zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k, c
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({self.coeffs!r})"

    def __str__(self) -> str:
        return format_poly(self)

    def sort_key(self) -> tuple:
        """Total order on polynomials: lexicographic on coefficient tuples."""
        return self.coeffs


def _coerce(x) -> RationalPolynomial:
    if isinstance(x, RationalPolynomial):
        return x
    return RationalPolynomial.constant(x)


def poly_from_strings(items) -> RationalPolynomial:
    """Rebuild a polynomial from 'num/den' coefficient strings."""
    return RationalPolynomial(tuple(Fraction(s) for s in items))


def poly_to_strings(p: RationalPolynomial) -> list:
    return [str(c) for c in p.coeffs]


def format_poly(p: RationalPolynomial, var: str = "F") -> str:
    """Human-readable exact form, highest power first, e.g. '8/9*F^2 - 4/9*F + 5/9'."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if k == 0:
            term = f"{mag}"
        else:
            pw = var if k == 1 else f"{var}^{k}"
            term = pw if mag == 1 else f"{mag}*{pw}"
        parts.append((sign, term))
    sign0, term0 = parts[0]
    text = ("-" if sign0 == "-" else "") + term0
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text
