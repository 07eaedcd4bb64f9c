"""Toolkit for enumerating and optimising bilocal Clifford distillation protocols.

The search space of n-to-1 protocols on Bell-diagonal pairs is reduced to
cosets of the symplectic group over GF(2): right cosets of the subgroup that
preserves all distillation statistics for general inputs, and double cosets
against the Werner symmetry group for identical Werner inputs.  The package
enumerates those cosets exhaustively, computes exact rational statistics,
compares against concatenated two-pair baselines, and synthesises low-depth
circuits for the optima.
"""

import os
import sys

# The package makes no BLAS call, but OpenBLAS starts a thread that spins on
# a spare core in every process; one BLAS thread avoids that.  The setting
# only takes effect before numpy is first imported, and a preset value wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .gf2 import (
    CNOT,
    CZ,
    Gate,
    H,
    S,
    SWAP,
    SymplecticMatrix,
    X,
    gate_matrix,
    is_symplectic,
    random_symplectic,
    sp_order,
    symplectic_inner,
    symplectic_inverse,
)
from .ratpoly import RationalPolynomial, format_poly
from .states import (
    BellDiagonalState,
    DistStats,
    base,
    leading_infidelity_term,
    numeric_stats,
    pillars,
    stats_in_epsilon,
    werner_stats,
)
from .groups import (
    GeneratorSet,
    coset_key,
    dn_generators,
    dn_index,
    dn_order,
    is_in_dn,
    kn_generators,
)
from .transversal import Transversal, build_transversal, enumerate_stats, pareto_envelope
from .werner import (
    Protocol,
    WernerCase,
    best_fidelity_protocol,
    build_representative,
    count_ab_pairs,
    distinct_protocols,
    enumerate_cases,
    graphs_up_to_iso,
)
from .circuits import (
    CliffordCircuit,
    circuit_to_symplectic,
    depth,
    published_circuits,
    synthesize,
    two_qubit_count,
)
from .dejmps import best_concatenated, dejmps_step, tree_shapes
from .metrics import (
    hashing_yield,
    ree_bell_diagonal,
    ree_product,
    shannon_entropy,
    target_rate,
)

__all__ = [
    "BellDiagonalState",
    "CliffordCircuit",
    "CNOT",
    "CZ",
    "DistStats",
    "Gate",
    "GeneratorSet",
    "H",
    "Protocol",
    "RationalPolynomial",
    "S",
    "SWAP",
    "SymplecticMatrix",
    "Transversal",
    "WernerCase",
    "X",
    "base",
    "best_concatenated",
    "best_fidelity_protocol",
    "build_representative",
    "build_transversal",
    "circuit_to_symplectic",
    "coset_key",
    "count_ab_pairs",
    "dejmps_step",
    "depth",
    "distinct_protocols",
    "dn_generators",
    "dn_index",
    "dn_order",
    "enumerate_cases",
    "enumerate_stats",
    "format_poly",
    "gate_matrix",
    "graphs_up_to_iso",
    "hashing_yield",
    "is_in_dn",
    "is_symplectic",
    "kn_generators",
    "leading_infidelity_term",
    "numeric_stats",
    "pareto_envelope",
    "pillars",
    "published_circuits",
    "random_symplectic",
    "ree_bell_diagonal",
    "ree_product",
    "shannon_entropy",
    "sp_order",
    "stats_in_epsilon",
    "symplectic_inner",
    "symplectic_inverse",
    "synthesize",
    "target_rate",
    "tree_shapes",
    "two_qubit_count",
    "werner_stats",
]
