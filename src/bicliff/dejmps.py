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

import math
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

# The rotation of the original protocol exchanges the Y and Z labels.
DEFAULT_ROTATION = "HSH"


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


def _step_unnormalised(ua, ub, table):
    return [sum(ua[i] * ub[j] for i, j in entry) for entry in table]


def dejmps_step(sa, sb, rotation: str = DEFAULT_ROTATION):
    """One two-to-one step on normalised coefficient 4-vectors.

    Returns (success probability, renormalised output coefficients).
    """
    for s in (sa, sb):
        if not all(math.isfinite(x) for x in s):
            raise ValueError("input coefficients must be finite")
        if abs(sum(s) - 1.0) > 1e-9:
            raise ValueError("input coefficients must sum to 1")
    out = _step_unnormalised(sa, sb, step_table(rotation))
    p_suc = sum(out)
    if p_suc == 0:
        return 0.0, (0.0, 0.0, 0.0, 0.0)
    return p_suc, tuple(v / p_suc for v in out)


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


@dataclass(frozen=True)
class TreePlan:
    """A concatenation plan: rotation label at each node, leaves are pairs."""

    rotation: str | None = None  # None marks a leaf
    keep: object = None
    measure: object = None

    @property
    def is_leaf(self) -> bool:
        return self.rotation is None

    def leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.keep.leaves() + self.measure.leaves()


LEAF = TreePlan()


def plan_to_circuit(plan: TreePlan, n: int) -> CliffordCircuit:
    """The n-qubit bilocal circuit realising a plan, kept pair on qubit 1.

    Leaves are numbered left to right; each node rotates the two subtree
    representatives and entangles them with a CNOT from kept to measured.
    """
    if plan.leaves() != n:
        raise ValueError("plan leaf count differs from n")
    gates: list = []
    counter = [0]

    def walk(p: TreePlan) -> int:
        if p.is_leaf:
            counter[0] += 1
            return counter[0]
        qk = walk(p.keep)
        qm = walk(p.measure)
        gates.extend(_rotation_gates(p.rotation, qk))
        gates.extend(_rotation_gates(p.rotation, qm))
        gates.append(CNOT(qk, qm))
        return qk

    root = walk(plan)
    assert root == 1 and counter[0] == n
    return CliffordCircuit(n, tuple(gates))


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


def _candidates(shape, leaf, rotations, index, memo) -> tuple:
    """Distinct reachable coefficient arrays for one shape, with plans.

    Returns (coeffs, plans): coeffs is (count, 4, d) in first-occurrence
    order of the loop keep candidate, measure candidate, rotation (both
    child orders when the children differ), and plans[k] realises coeffs[k].
    """
    if shape in memo:
        return memo[shape]
    if shape is None:
        memo[shape] = (leaf[None], [LEAF])
        return memo[shape]
    left, right = shape
    lc = _candidates(left, leaf, rotations, index, memo)
    rc = _candidates(right, leaf, rotations, index, memo)
    orders = [(lc, rc)] if left == right else [(lc, rc), (rc, lc)]
    outs = [_step_arrays(keep, measure, index) for (keep, _), (measure, _) in orders]
    rows = np.concatenate([out.reshape(-1, *out.shape[3:]) for out in outs])
    first = first_rows(rows)
    plans = []
    for i in first:  # both orders yield the same number of rows
        o, rest = divmod(int(i), len(rows) // len(orders))
        (_, keep_plans), (_, measure_plans) = orders[o]
        k, m, r = np.unravel_index(rest, outs[o].shape[:3])
        plans.append(TreePlan(rotations[r], keep_plans[k], measure_plans[m]))
    memo[shape] = (rows[first], plans)
    return memo[shape]


@dataclass
class ConcatenatedResult:
    stats: DistStats
    plan: TreePlan
    dominant: bool
    pointwise: list  # per-grid-point winning candidate row (when not dominant)
    candidates: int


def candidate_rows(n: int, leaf=None, rotations=None) -> tuple:
    """(rows, denom, plans): the distinct unnormalised outputs of n-leaf plans.

    The tree recursion keeps the first plan of each distinct coefficient
    array; plans[k] realises rows[k].  The default Werner leaf gives
    (count, 4, n+1) int64 power-ascending coefficients over denom 3^n, each at
    most 9^n < 2^63 in magnitude for the n <= 8 of `tree_shapes`; a numeric
    leaf (pI, pX, pY, pZ) gives (count, 4, 1) floats and denom None.
    """
    if leaf is None:
        leaf, scale = WERNER_LEAF, 3
    else:  # a numeric leaf is a (4, 1) float array
        leaf, scale = np.asarray(leaf, dtype=float).reshape(4, 1), None
    rotations = tuple(ROTATION_WORDS) if rotations is None else tuple(rotations)
    index = np.array([step_table(rot) for rot in rotations]).transpose(3, 0, 1, 2)
    memo: dict = {}
    found = [_candidates(shape, leaf, rotations, index, memo) for shape in tree_shapes(n)]
    rows = np.concatenate([coeffs for coeffs, _ in found])
    plans = [plan for _, shape_plans in found for plan in shape_plans]
    first = first_rows(rows)
    return rows[first], None if scale is None else scale**n, [plans[i] for i in first]


def _output_key(row: np.ndarray, denom) -> tuple:
    """The 4-tuple of one candidate row: floats, or RationalPolynomial over denom."""
    if denom is None:
        return tuple(float(c) for c in row[:, 0])
    return tuple(RationalPolynomial(Fraction(int(c), denom) for c in q) for q in row)


def concatenated_candidates(n: int, leaf=None, rotations=None) -> dict:
    """`candidate_rows` as a dict from output 4-tuples (see `_output_key`) to plans."""
    rows, denom, plans = candidate_rows(n, leaf, rotations)
    return {_output_key(row, denom): plan for row, plan in zip(rows, plans)}


def best_concatenated(n: int, leaf=None, f_grid=None, rotations=None) -> ConcatenatedResult:
    """The plan maximising output fidelity, pointwise over the grid.

    Polynomial mode (default Werner leaf): groups candidates into F_out
    curves, reports the one maximal at every grid point, or the per-point
    winners when curves cross.  Numeric leaves reduce to a single comparison.
    """
    rows, denom, plans = candidate_rows(n, leaf=leaf, rotations=rotations)
    if denom is None:
        keys = [_output_key(row, None) for row in rows]
        best = max(range(len(keys)), key=lambda k: keys[k][0] / s if (s := sum(keys[k])) > 0 else 0.0)
        dominant, pointwise = True, []
    else:
        grid = default_f_grid() if f_grid is None else np.asarray(f_grid, dtype=float)
        tied, dominant, pointwise = best_curve(rows, denom, grid)
        best = tied[0]
    stats = DistStats.from_coset_sums(*_output_key(rows[best], denom))
    return ConcatenatedResult(stats, plans[best], dominant, pointwise, len(rows))
