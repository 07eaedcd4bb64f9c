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
from .states import DistStats, preimage_cosets, vector_paulis
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


def _candidates(shape, leaf, rotations, memo) -> dict:
    """Distinct reachable coefficient 4-tuples for one shape, with plans."""
    if shape in memo:
        return memo[shape]
    if shape is None:
        memo[shape] = {leaf: LEAF}
        return memo[shape]
    left, right = shape
    lc = _candidates(left, leaf, rotations, memo)
    rc = _candidates(right, leaf, rotations, memo)
    out: dict = {}
    orders = [(lc, rc)] if left == right else [(lc, rc), (rc, lc)]
    for keep_set, measure_set in orders:
        for uk, pk in keep_set.items():
            for um, pm in measure_set.items():
                for rot in rotations:
                    key = tuple(_step_unnormalised(uk, um, step_table(rot)))
                    if key not in out:
                        out[key] = TreePlan(rot, pk, pm)
    memo[shape] = out
    return out


@dataclass
class ConcatenatedResult:
    stats: DistStats
    plan: TreePlan
    dominant: bool
    pointwise: list
    candidates: int


def concatenated_candidates(n: int, leaf=None, rotations=None) -> dict:
    """All distinct unnormalised output 4-tuples of n-leaf plans."""
    if leaf is None:
        leaf = werner_leaf()
    rotations = tuple(ROTATION_WORDS) if rotations is None else tuple(rotations)
    memo: dict = {}
    out: dict = {}
    for shape in tree_shapes(n):
        for key, plan in _candidates(shape, leaf, rotations, memo).items():
            out.setdefault(key, plan)
    return out


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
    curves: dict = {}
    for key, plan in items:
        p_suc = key[0] + key[1] + key[2] + key[3]
        curves.setdefault((p_suc, key[0]), (key, plan))
    entries = list(curves.values())
    values = np.empty((len(entries), len(grid)))
    for i, (key, _) in enumerate(entries):
        num = key[0].on_grid(grid)
        den = sum(k.on_grid(grid) for k in key)
        values[i] = num / den
    row, dominant, pointwise = pick_curve(values)
    key, plan = entries[row]
    return ConcatenatedResult(
        DistStats.from_coset_sums(*key), plan, dominant, pointwise, len(items)
    )
