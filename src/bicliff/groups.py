"""The distillation subgroup and coset keys.

The distillation subgroup D_n consists of the symplectic matrices mapping the
base onto itself; composing a protocol with one of them permutes only the
X/Y/Z output coefficients, so protocols in the same right coset D_n M share
their (sorted) statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import CNOT, H, S, Gate, SymplecticMatrix, gate_matrix, rref_rows, swap_halves


@dataclass(frozen=True)
class GeneratorSet:
    n: int
    gates: tuple

    def matrices(self) -> list:
        return [gate_matrix(g, self.n) for g in self.gates]


def dn_generators(n: int) -> GeneratorSet:
    """Generating gates of the distillation subgroup.

    H and S on the kept pair, S everywhere, CNOTs with control above target,
    and CNOTs between measured pairs with control below target.  For n=1 this
    is {H_1, S_1}, which generates all of Sp(2, F2).
    """
    gates: list[Gate] = [H(1)] + [S(i) for i in range(1, n + 1)]
    gates += [CNOT(i, j) for i in range(2, n + 1) for j in range(1, i)]
    gates += [CNOT(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)]
    return GeneratorSet(n, tuple(gates))


def is_in_dn(m: SymplecticMatrix) -> bool:
    """True iff m maps the base onto the base: m shares the identity's coset."""
    return coset_key(m) == coset_key(SymplecticMatrix.identity(m.n))


def coset_key(m: SymplecticMatrix) -> tuple:
    """Canonical identifier of the right coset D_n m.

    Two matrices lie in the same coset iff the same vectors are mapped into
    the base, i.e. iff their base preimages coincide; the key is the reduced
    basis of that preimage subspace, the one-matrix case of `coset_keys`.
    Dependent rows give a shorter basis, without the zero rows.
    """
    return tuple(v for v in coset_keys(np.array(m.rows, dtype=np.uint64), m.n).tolist() if v)


def coset_keys(rows, n: int):
    """Coset keys of many matrices at once, from a (..., 2n) array of row masks.

    The base preimage is spanned by rows 1..n-1 with their halves swapped
    (see `states.preimage_index`), so each key is the reduced basis of those
    n-1 vectors: a (..., n-1) array of the rows' dtype, zero-padded where
    they are dependent.
    """
    return rref_rows(swap_halves(rows[..., 1:n], n))


def bfs_closure(matrices, limit: int | None = None) -> set:
    """Closure of a generating set under multiplication (worklist BFS).

    Intended for small groups; raises if `limit` elements are exceeded.
    """
    gens = list(matrices)
    seen = {SymplecticMatrix.identity(gens[0].n)} | set(gens)
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                p = g @ a
                if p not in seen:
                    seen.add(p)
                    new.append(p)
                    if limit is not None and len(seen) > limit:
                        raise RuntimeError(f"closure exceeded limit {limit}")
        frontier = new
    return seen
