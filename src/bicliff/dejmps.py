"""The two-to-one DEJMPS step and the concatenated protocol family.

A step takes two Bell-diagonal pairs, applies the same single-qubit rotation
bilocally to both, a bilocal CNOT from the kept pair onto the measured pair,
and keeps the first pair when the measurement outcomes agree.  Concatenating
steps along a binary tree of pairs, with a rotation choice at every internal
node, generates the family used as the comparison baseline; it contains the
classic recurrence, pumping and double-selection schemes.

Intermediate states are carried unnormalised (entries summing to the
cumulative success probability), which keeps the integer rows exact and makes
the chain rule automatic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf2 import CNOT, H, S, apply_gate_rows
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
    rows = [1 << i for i in range(4)]
    for g in _rotation_gates(rotation, 1) + _rotation_gates(rotation, 2) + [CNOT(1, 2)]:
        apply_gate_rows(rows, g, 2)
    cosets = preimage_index(np.array(rows), 2).tolist()
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


def _step_arrays(keep, measure) -> np.ndarray:
    """Every step output of every (keep, measure, rotation) triple.

    keep (L, 4, a) and measure (R, 4, b) hold integer coefficient rows.  The
    result has shape (L, R, rotations, 4, a + b - 1): each row is the sum over
    a `step_table` entry of the polynomial products keep[i] * measure[j].
    """
    a, b = keep.shape[2], measure.shape[2]
    prod = np.zeros((len(keep), len(measure), 4, 4, a + b - 1), dtype=keep.dtype)
    for s in range(a):
        prod[..., s : s + b] += keep[:, None, :, None, s, None] * measure[None, :, None, :, :]
    i, j = np.array([step_table(rot) for rot in ROTATION_WORDS]).transpose(3, 0, 1, 2)
    return prod[:, :, i, j].sum(axis=4)


@lru_cache(maxsize=None)
def _candidates(shape) -> np.ndarray:
    """Distinct reachable coefficient arrays for one shape, (count, 4, d).

    Rows keep their first-occurrence order in the loop keep candidate,
    measure candidate, rotation (both child orders when the children differ).
    """
    if shape is None:
        return WERNER_LEAF[None]
    left, right = shape
    orders = [(left, right)] if left == right else [(left, right), (right, left)]
    outs = [_step_arrays(_candidates(keep), _candidates(measure)) for keep, measure in orders]
    rows = np.concatenate([out.reshape(-1, *out.shape[3:]) for out in outs])
    return rows[first_rows(rows)]


def candidate_rows(n: int) -> np.ndarray:
    """The distinct unnormalised outputs of the n-leaf family on Werner leaves.

    An int64 array (count, 4, n+1) of power-ascending coefficients over 3^n,
    each at most 9^n < 2^63 in magnitude for the n <= 8 of `tree_shapes`.
    Rows keep the order in which the tree recursion first reaches them.
    """
    rows = np.concatenate([_candidates(shape) for shape in tree_shapes(n)])
    return rows[first_rows(rows)]


def best_concatenated(n: int) -> DistStats:
    """The member of the family maximising output fidelity, pointwise over the
    default grid: the first row of the F_out curve `best_curve` picks."""
    rows = candidate_rows(n)
    tied, _ = best_curve(rows, n, default_f_grid())
    return DistStats.from_rows(rows[tied[0]], n)
