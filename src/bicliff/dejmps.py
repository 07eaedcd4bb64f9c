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
from .metrics import CurveSet
from .ratpoly import RationalPolynomial
from .states import DistStats, poly_coeff_rows, preimage_cosets, vector_paulis
from .werner import default_f_grid, pick_curve

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
    v0, shifts = preimage_cosets(m.rows, 2)
    return tuple(tuple(vector_paulis(v ^ t, 2) for v in v0) for t in shifts)


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

    def to_json_obj(self):
        if self.is_leaf:
            return "pair"
        return {
            "rotation": self.rotation,
            "keep": self.keep.to_json_obj(),
            "measure": self.measure.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "TreePlan":
        if obj == "pair":
            return cls()
        return cls(
            obj["rotation"],
            cls.from_json_obj(obj["keep"]),
            cls.from_json_obj(obj["measure"]),
        )


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


def werner_leaf() -> tuple:
    """Unnormalised Werner coefficients as exact polynomials in F."""
    f = RationalPolynomial.variable()
    e = RationalPolynomial((Fraction(1, 3), Fraction(-1, 3)))
    return (f, e, e, e)


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
    seen = set()
    coeffs, plans = [], []
    for (keep, keep_plans), (measure, measure_plans) in orders:
        out = _step_arrays(keep, measure, index)
        for (k, m, r), row in zip(np.ndindex(out.shape[:3]), out.reshape(-1, *out.shape[3:])):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                coeffs.append(row)
                plans.append(TreePlan(rotations[r], keep_plans[k], measure_plans[m]))
    memo[shape] = (np.array(coeffs), plans)
    return memo[shape]


@dataclass
class ConcatenatedResult:
    stats: DistStats
    plan: TreePlan
    dominant: bool
    pointwise: list
    candidates: int


def concatenated_candidates(n: int, leaf=None, rotations=None) -> dict:
    """All distinct unnormalised output 4-tuples of n-leaf plans.

    The tree recursion runs on coefficient arrays (exact integers for the
    Werner leaf) and deduplicates on their bytes; only the distinct results
    become 4-tuples of RationalPolynomial (or of floats for numeric leaves).
    """
    leaf = werner_leaf() if leaf is None else leaf
    if isinstance(leaf[0], RationalPolynomial):
        (leaf,), scale = poly_coeff_rows([leaf])
    else:  # a numeric leaf is a (4, 1) float array
        leaf, scale = np.asarray(leaf, dtype=float).reshape(4, 1), None
    # every coefficient of an n-leaf output is bounded by (sum |leaf|)^n
    if scale is not None and int(np.abs(leaf).sum()) ** n >= 2**63:
        raise ValueError("leaf coefficients too large for exact int64 products")
    rotations = tuple(ROTATION_WORDS) if rotations is None else tuple(rotations)
    index = np.array([step_table(rot) for rot in rotations]).transpose(3, 0, 1, 2)
    memo: dict = {}
    out: dict = {}
    for shape in tree_shapes(n):
        coeffs, plans = _candidates(shape, leaf, rotations, index, memo)
        for row, plan in zip(coeffs, plans):
            out.setdefault(row.tobytes(), (row, plan))
    if scale is None:
        return {tuple(float(c) for c in row[:, 0]): plan for row, plan in out.values()}
    denom = scale**n
    return {
        tuple(RationalPolynomial(Fraction(int(c), denom) for c in q) for q in row): plan
        for row, plan in out.values()
    }


def best_concatenated(n: int, leaf=None, f_grid=None, rotations=None) -> ConcatenatedResult:
    """The plan maximising output fidelity, pointwise over the grid.

    Polynomial mode (default Werner leaf): groups candidates into F_out
    curves, reports the one maximal at every grid point, or the per-point
    winners when curves cross.  Numeric leaves reduce to a single comparison.
    """
    cands = concatenated_candidates(n, leaf=leaf, rotations=rotations)
    items = list(cands.items())
    polynomial = isinstance(items[0][0][0], RationalPolynomial)
    if not polynomial:
        best_key, best_plan = max(
            items, key=lambda kv: (kv[0][0] / s if (s := sum(kv[0])) > 0 else 0.0)
        )
        return ConcatenatedResult(
            DistStats.from_coset_sums(*best_key), best_plan, True, [], len(items)
        )

    grid = default_f_grid() if f_grid is None else np.asarray(f_grid, dtype=float)
    rows, denom = poly_coeff_rows(cands)
    firsts: dict = {}  # first row of each (p_suc, f_num) curve
    for i, r in enumerate(rows):
        firsts.setdefault((r.sum(axis=0).tobytes(), r[0].tobytes()), i)
    entries = list(firsts.values())
    curves = CurveSet(rows[entries], denom, grid)
    row, dominant, pointwise = pick_curve(curves.f / curves.p)
    key, plan = items[entries[row]]
    return ConcatenatedResult(
        DistStats.from_coset_sums(*key), plan, dominant, pointwise, len(items)
    )
