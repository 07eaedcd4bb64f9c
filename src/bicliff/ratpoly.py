"""Univariate polynomials with exact rational coefficients: a format to
print, evaluate and compare exact statistics, not a ring.

Coefficients are `fractions.Fraction` values indexed by power, with trailing
zeros trimmed, so two polynomials are equal iff their coefficient tuples are
equal.  The exact work happens on integer coefficient rows over 3^n
(`states.werner_coeff_rows`), and `states.rows_to_polys` builds polynomials
for the (few) results that are printed or compared; the one transform here is
the re-expansion in eps = 1 - F, a binomial sum.
"""

from __future__ import annotations

import math
from fractions import Fraction


class RationalPolynomial:
    """An immutable polynomial sum_k coeffs[k] * x^k over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for Fraction/int arguments."""
        acc = Fraction(0) if isinstance(x, (Fraction, int)) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_one_minus(self) -> "RationalPolynomial":
        """Exact re-expansion of p(1 - y) as a polynomial in y: by the binomial
        theorem, coefficient j is (-1)^j * sum_k C(k, j) * c_k."""
        cs = self.coeffs
        return RationalPolynomial(
            (-1) ** j * sum(math.comb(k, j) * cs[k] for k in range(j, len(cs))) for j in range(len(cs))
        )

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


def poly_from_strings(items) -> RationalPolynomial:
    """Rebuild a polynomial from 'num/den' coefficient strings."""
    return RationalPolynomial(tuple(Fraction(s) for s in items))


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
