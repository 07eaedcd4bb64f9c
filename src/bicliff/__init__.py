"""Toolkit for enumerating and optimising bilocal Clifford distillation protocols.

The search space of n-to-1 protocols on Bell-diagonal pairs is reduced to
cosets of the symplectic group over GF(2): right cosets of the subgroup that
preserves all distillation statistics for general inputs, and double cosets
against the Werner symmetry group for identical Werner inputs.  The package
enumerates those cosets exhaustively, computes exact rational statistics,
compares against concatenated two-pair baselines, and synthesises low-depth
circuits for the optima.
"""

import importlib
import os
import sys

# The package makes no BLAS call, but OpenBLAS starts a thread that spins on
# a spare core in every process; one BLAS thread avoids that.  The setting
# only takes effect before numpy is first imported, and a preset value wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# submodule -> the public names it defines.  `import bicliff` loads no
# submodule: each name is imported on first use (PEP 562), so a process pays
# only for the parts of the package it runs.
_EXPORTS = {
    "gf2": [
        "CNOT", "CZ", "Gate", "H", "S", "SWAP", "SymplecticMatrix", "X", "gate_matrix",
        "is_symplectic", "random_symplectic", "sp_order", "symplectic_inner",
    ],
    "ratpoly": ["RationalPolynomial", "format_poly"],
    "states": [
        "BellDiagonalState", "DistStats", "base", "leading_infidelity_term", "numeric_stats",
        "pillars", "stats_in_epsilon", "werner_stats",
    ],
    "groups": ["GeneratorSet", "coset_key", "dn_generators", "dn_index", "dn_order", "is_in_dn"],
    "transversal": ["Transversal", "build_transversal", "enumerate_stats", "pareto_envelope"],
    "werner": [
        "Protocol", "WernerCase", "best_fidelity_protocol", "build_representative",
        "count_ab_pairs", "distinct_protocols", "graphs_up_to_iso",
    ],
    "circuits": [
        "CliffordCircuit", "circuit_to_symplectic", "depth", "published_circuits", "synthesize",
        "two_qubit_count",
    ],
    "dejmps": ["best_concatenated", "tree_shapes"],
    "metrics": [
        "hashing_yield", "ree_bell_diagonal", "ree_product", "shannon_entropy", "target_rate",
    ],
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
