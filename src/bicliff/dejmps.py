"""The two-to-one DEJMPS step and the concatenated protocol family.

A step takes two Bell-diagonal pairs, applies the same single-qubit rotation
bilocally to both, a bilocal CNOT from the kept pair onto the measured pair,
and keeps the first pair when the measurement outcomes agree.  Concatenating
steps along a binary tree of pairs, with a rotation choice at every internal
node, generates the family used as the comparison baseline; it contains the
classic recurrence, pumping and double-selection schemes.

Intermediate states are carried unnormalised (entries summing to the
cumulative success probability), which keeps polynomial mode exact and makes
the chain rule automatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gf2 import CNOT, H, S
from .circuits import CliffordCircuit, circuit_to_symplectic
from .ratpoly import RationalPolynomial
from .states import DistStats, preimage_index, vector_paulis
from .werner import best_curve, default_f_grid, first_rows

# The six single-qubit Clifford rotations modulo Paulis, as temporal gate words.
ROTATION_WORDS = {
    "I": (),
    "H": ("H",),
    "S": ("S",),
    "HS": ("H", "S"),
    "SH": ("S", "H"),
    "HSH": ("H", "S", "H"),
}


def _rotation_gates(label: str, qubit: int) -> list:
    return [H(qubit) if k == "H" else S(qubit) for k in ROTATION_WORDS[label]]


@lru_cache(maxsize=None)
def step_table(rotation: str) -> tuple:
    """Index table of one step: four cosets of (pair1, pair2) Bell indices.

    Entry k lists the (i, j) pairs whose product uA[i]*uB[j] contributes to
    output coefficient k (order I, X, Y, Z of the kept pair).
    """
    gates = _rotation_gates(rotation, 1) + _rotation_gates(rotation, 2)
    gates.append(CNOT(1, 2))
    m = circuit_to_symplectic(CliffordCircuit(2, tuple(gates)))
    cosets = preimage_index(m.rows, 2).tolist()
    return tuple(tuple(vector_paulis(v, 2) for v in coset) for coset in cosets)


# ---------------------------------------------------------------------------
# Binary tree shapes (unordered children)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def tree_shapes(n: int) -> tuple:
    """All binary trees with n unlabelled leaves, one per unordered shape.

    A leaf is None; a node is a pair (smaller-or-equal subtree first).
    """
    if not 1 <= n <= 8:
        raise ValueError("supported leaf counts are 1..8")
    if n == 1:
        return (None,)
    shapes = []
    for k in range(1, n // 2 + 1):
        left = tree_shapes(k)
        right = tree_shapes(n - k)
        if k < n - k:
            shapes += [(l, r) for l in left for r in right]
        else:
            for i, l in enumerate(left):
                shapes += [(l, r) for r in right[i:]]
    return tuple(shapes)


# ---------------------------------------------------------------------------
# Exhausting the family
# ---------------------------------------------------------------------------


# The Werner leaf (F, e, e, e), e = (1 - F)/3, as power-ascending integer rows
# over the denominator 3.
WERNER_LEAF = np.array([[0, 3], [1, -1], [1, -1], [1, -1]], dtype=np.int64)


def _step_arrays(keep, measure, index) -> np.ndarray:
    """Every step output of every (keep, measure, rotation) triple.

    keep (L, 4, a) and measure (R, 4, b) hold coefficient rows, and index
    holds the step tables as two (rotations, 4, terms) arrays of i and j.
    The result has shape (L, R, rotations, 4, a + b - 1): each row is the sum
    over a table entry of the products keep[i] * measure[j] (polynomial
    products, which reduce to plain products for numeric (4, 1) rows).
    """
    a, b = keep.shape[2], measure.shape[2]
    prod = np.zeros((len(keep), len(measure), 4, 4, a + b - 1), dtype=keep.dtype)
    for s in range(a):
        prod[..., s : s + b] += keep[:, None, :, None, s, None] * measure[None, :, None, :, :]
    i, j = index
    return prod[:, :, i, j].sum(axis=4)


def _candidates(shape, leaf, index, memo) -> np.ndarray:
    """Distinct reachable coefficient arrays for one shape, (count, 4, d).

    Rows keep their first-occurrence order in the loop keep candidate,
    measure candidate, rotation (both child orders when the children differ).
    """
    if shape not in memo:
        if shape is None:
            memo[shape] = leaf[None]
        else:
            left, right = shape
            lc = _candidates(left, leaf, index, memo)
            rc = _candidates(right, leaf, index, memo)
            orders = [(lc, rc)] if left == right else [(lc, rc), (rc, lc)]
            outs = [_step_arrays(keep, measure, index) for keep, measure in orders]
            rows = np.concatenate([out.reshape(-1, *out.shape[3:]) for out in outs])
            memo[shape] = rows[first_rows(rows)]
    return memo[shape]


@dataclass
class ConcatenatedResult:
    stats: DistStats
    dominant: bool
    candidates: int


def candidate_rows(n: int, leaf=None, rotations=None) -> tuple:
    """(rows, denom): the distinct unnormalised outputs of the n-leaf family.

    Rows keep the order in which the tree recursion first reaches them.  The
    default Werner leaf gives (count, 4, n+1) int64 power-ascending
    coefficients over denom 3^n, each at most 9^n < 2^63 in magnitude for the
    n <= 8 of `tree_shapes`; a numeric leaf (pI, pX, pY, pZ) gives
    (count, 4, 1) floats and denom None.
    """
    if leaf is None:
        leaf, scale = WERNER_LEAF, 3
    else:  # a numeric leaf is a (4, 1) float array
        leaf, scale = np.asarray(leaf, dtype=float).reshape(4, 1), None
    rotations = tuple(ROTATION_WORDS) if rotations is None else tuple(rotations)
    index = np.array([step_table(rot) for rot in rotations]).transpose(3, 0, 1, 2)
    memo: dict = {}
    rows = np.concatenate([_candidates(shape, leaf, index, memo) for shape in tree_shapes(n)])
    return rows[first_rows(rows)], None if scale is None else scale**n


def _output_key(row: np.ndarray, denom) -> tuple:
    """The 4-tuple of one candidate row: floats, or RationalPolynomial over denom."""
    if denom is None:
        return tuple(float(c) for c in row[:, 0])
    return tuple(RationalPolynomial(Fraction(int(c), denom) for c in q) for q in row)


def concatenated_candidates(n: int, leaf=None, rotations=None) -> list:
    """`candidate_rows` as output 4-tuples (see `_output_key`), in row order."""
    rows, denom = candidate_rows(n, leaf, rotations)
    return [_output_key(row, denom) for row in rows]


def best_concatenated(n: int, leaf=None, f_grid=None, rotations=None) -> ConcatenatedResult:
    """The member of the family maximising output fidelity, pointwise over the grid.

    Polynomial mode (default Werner leaf): the first row of the F_out curve
    `best_curve` picks.  Numeric leaves reduce to a single comparison.
    """
    rows, denom = candidate_rows(n, leaf=leaf, rotations=rotations)
    if denom is None:
        keys = [_output_key(row, None) for row in rows]
        best = max(range(len(keys)), key=lambda k: keys[k][0] / s if (s := sum(keys[k])) > 0 else 0.0)
        dominant = True
    else:
        grid = default_f_grid() if f_grid is None else np.asarray(f_grid, dtype=float)
        tied, dominant = best_curve(rows, denom, grid)
        best = tied[0]
    stats = DistStats.from_coset_sums(*_output_key(rows[best], denom))
    return ConcatenatedResult(stats, dominant, len(rows))
