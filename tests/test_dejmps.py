import hashlib
from fractions import Fraction as Fr

import numpy as np

from bicliff.dejmps import (
    ROTATION_WORDS,
    _candidates,
    best_concatenated,
    candidate_rows,
    step_table,
    tree_shapes,
)
from bicliff.circuits import circuit_to_symplectic
from bicliff.ratpoly import RationalPolynomial
from bicliff.states import DistStats, leading_infidelity_term, numeric_stats, werner_coeff_rows
from _reference import best_f_poly, best_p_poly
import _scalar_reference
from _scalar_reference import DEFAULT_ROTATION, dejmps_step, plan_to_circuit, poly_mul, werner_state


# --- density-matrix oracle -----------------------------------------------------

H2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
S2 = np.diag([1, 1j])
KET = {0: np.array([1, 0]), 1: np.array([0, 1])}


def bell_states():
    phi_p = (np.kron(KET[0], KET[0]) + np.kron(KET[1], KET[1])) / np.sqrt(2)
    psi_p = (np.kron(KET[0], KET[1]) + np.kron(KET[1], KET[0])) / np.sqrt(2)
    psi_m = (np.kron(KET[0], KET[1]) - np.kron(KET[1], KET[0])) / np.sqrt(2)
    phi_m = (np.kron(KET[0], KET[0]) - np.kron(KET[1], KET[1])) / np.sqrt(2)
    return [phi_p, psi_p, psi_m, phi_m]


def bell_diagonal_density(p):
    return sum(pi * np.outer(b, b.conj()) for pi, b in zip(p, bell_states()))


def embed(op, position, total=4):
    full = np.eye(1)
    for q in range(total):
        full = np.kron(full, op if q == position else np.eye(2))
    return full


def cnot_on(control, target, total=4):
    p0 = np.array([[1, 0], [0, 0]])
    p1 = np.array([[0, 0], [0, 1]])
    x = np.array([[0, 1], [1, 0]])
    return embed(p0, control, total) + embed(p1, control, total) @ embed(x, target, total)


def word_operator(word):
    u = np.eye(2, dtype=complex)
    for letter in word:
        u = (H2 if letter == "H" else S2) @ u  # temporal order
    return u


def simulate_step(pa, pb, word):
    """Physical oracle: 4-qubit density-matrix simulation of one step.

    Qubit order (A1, B1, A2, B2).  Alice applies the rotation word to A1 and
    A2 and a CNOT A1->A2; Bob applies the conjugated gates to B1, B2.
    Success keeps equal computational outcomes on (A2, B2).
    """
    rho = np.kron(bell_diagonal_density(pa), bell_diagonal_density(pb))
    u = word_operator(word)
    op = embed(u, 0) @ embed(u, 2) @ embed(u.conj(), 1) @ embed(u.conj(), 3)
    op = cnot_on(0, 2) @ cnot_on(1, 3) @ op
    rho = op @ rho @ op.conj().T
    # project A2, B2 on correlated outcomes
    p00 = embed(np.diag([1, 0]), 2) @ embed(np.diag([1, 0]), 3)
    p11 = embed(np.diag([0, 1]), 2) @ embed(np.diag([0, 1]), 3)
    kept = p00 @ rho @ p00 + p11 @ rho @ p11
    p_suc = np.trace(kept).real
    # partial trace over qubits A2, B2
    t = kept.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    reduced = np.einsum("abcdefcd->abef", t.reshape((2,) * 8)) / p_suc
    rho1 = reduced.reshape(4, 4)
    coeffs = [float(np.real(b.conj() @ rho1 @ b)) for b in bell_states()]
    return p_suc, coeffs


def test_step_matches_density_matrix_oracle():
    rng = np.random.default_rng(17)
    for label, word in ROTATION_WORDS.items():
        for _ in range(3):
            pa = rng.dirichlet(np.ones(4))
            pb = rng.dirichlet(np.ones(4))
            want_p, want_out = simulate_step(pa, pb, word)
            got_p, got_out = dejmps_step(tuple(pa), tuple(pb), rotation=label)
            assert np.isclose(got_p, want_p, atol=1e-12), label
            assert np.allclose(got_out, want_out, atol=1e-12), label


def test_default_rotation_swaps_y_and_z():
    # the original protocol's rotation pairs the I and Y coefficients
    table = step_table(DEFAULT_ROTATION)
    assert set(table[0]) == {(0, 0), (2, 2)}


def test_perfect_pairs_pass_through():
    p, out = dejmps_step((1, 0, 0, 0), (1, 0, 0, 0))
    assert p == 1 and out == (1, 0, 0, 0)


def test_werner_step_known_values():
    p, out = dejmps_step((0.7, 0.1, 0.1, 0.1), (0.7, 0.1, 0.1, 0.1))
    assert np.isclose(p, 0.68)
    assert np.isclose(out[0], 0.5 / 0.68)


def test_step_tables_cover_all_rotations_on_werner():
    # every rotation gives the same exact polynomials on Werner inputs
    leaf = _scalar_reference.werner_leaf()
    products = _scalar_reference.step_products(leaf, leaf)
    outs = set()
    for label in ROTATION_WORDS:
        out = _scalar_reference._step_unnormalised(products, step_table(label))
        outs.add(_scalar_reference.exact_stats(out))
    assert len(outs) == 1
    (p, f, _), = outs
    assert p == best_p_poly(2).coeffs and f == best_f_poly(2).coeffs


# --- tree shapes -----------------------------------------------------------------


def wedderburn_etherington(n):
    a = {1: 1}
    for k in range(2, n + 1):
        total = sum(a[i] * a[k - i] for i in range(1, (k - 1) // 2 + 1))
        if k % 2 == 0:
            h = a[k // 2]
            total += h * (h + 1) // 2
        a[k] = total
    return a[n]


def test_tree_shape_counts_match_recurrence():
    for n in range(1, 9):
        assert len(tree_shapes(n)) == wedderburn_etherington(n)
    assert len(tree_shapes(2)) == 1
    assert len(tree_shapes(4)) == 2
    assert len(tree_shapes(8)) == 23


def test_tree_shapes_distinct():
    for n in range(1, 9):
        shapes = tree_shapes(n)
        assert len(set(shapes)) == len(shapes)


# --- concatenated family ----------------------------------------------------------


def test_best_concatenated_n2_is_two_pair_step():
    st = best_concatenated(2)
    assert st.p_suc == best_p_poly(2)
    assert st.f_num == best_f_poly(2)


def test_best_concatenated_n3_matches_full_optimum():
    st = best_concatenated(3)
    assert st.p_suc == best_p_poly(3)
    assert st.f_num == best_f_poly(3)


def test_best_concatenated_n5_leading_order():
    assert leading_infidelity_term(best_concatenated(5)) == (2, Fr(2, 3))


def test_n5_concatenated_equals_n4_optimum_fidelity():
    st = best_concatenated(5)
    p4, f4 = best_p_poly(4).coeffs, best_f_poly(4).coeffs
    assert poly_mul(st.f_num.coeffs, p4) == poly_mul(f4, st.p_suc.coeffs)


def test_unit_statistics_at_perfect_input():
    for rows in candidate_rows(4):
        st = DistStats.from_rows(rows, 4)
        assert st.p_suc(1) == 1 and st.f_num(1) == 1


def _canonical_rows(rows) -> set:
    """Each (4, d) row as its base row and the sorted multiset of its X/Y/Z
    rows: equal entries mean equal exact statistics."""
    return {(tuple(row[0]), tuple(sorted(map(tuple, row[1:])))) for row in rows.tolist()}


def test_plans_are_protocols(protocols_for):
    # every plan's exact statistics appear among the distinct protocols
    for n in range(2, 9):
        enumerated = _canonical_rows(werner_coeff_rows([p.counts for p in protocols_for(n)], n))
        assert _canonical_rows(candidate_rows(n)) <= enumerated, n


# sha256 of candidate_rows(n) for n = 1..8 in ascending n, as little-endian int64
FAMILY_SHA256 = "41ba650ad93c772bf720414f7929aee1ee35a0365dc419335e602352c947ae0a"


def test_family_cache_keeps_no_state_between_calls():
    # each tree shape is built once, and the rows do not depend on which n
    # first asked for it
    _candidates.cache_clear()
    rows = {n: candidate_rows(n) for n in range(8, 0, -1)}
    digest = hashlib.sha256(b"".join(rows[n].astype("<i8").tobytes() for n in range(1, 9)))
    assert digest.hexdigest() == FAMILY_SHA256
    assert _candidates.cache_info().misses == sum(len(tree_shapes(n)) for n in range(1, 9)) == 48


def test_plan_chain_rule_matches_whole_circuit():
    # stepwise evaluation equals one shot through the n-qubit circuit
    for n in (3, 4):
        cands = _scalar_reference.concatenated_candidates(n)
        f = 0.75
        state = werner_state(n, f)
        for key, plan in list(cands.items())[:6]:
            circ = plan_to_circuit(plan, n)
            direct = numeric_stats(circuit_to_symplectic(circ), state)
            stepwise = DistStats.from_coset_sums(*(RationalPolynomial(q)(f) for q in key))
            assert np.isclose(direct.p_suc, stepwise.p_suc, atol=1e-12)
            assert np.isclose(direct.f_num, stepwise.f_num, atol=1e-12)
            for a, b in zip(direct.fi_nums, stepwise.fi_nums):
                assert np.isclose(a, b, atol=1e-12)


def test_array_family_matches_fraction_reference():
    # same keys in the same order as the exact tree recursion, each key's
    # polynomials written as integer rows over 3^n, n+1 wide
    for n in range(2, 9):
        keys = [
            [[c * 3**n for c in q] + [0] * (n + 1 - len(q)) for q in key]
            for key in _scalar_reference.concatenated_candidates(n)
        ]
        assert candidate_rows(n).tolist() == keys, n
