import numpy as np

from bicliff.gf2 import (
    CNOT,
    CZ,
    H,
    S,
    SymplecticMatrix,
    gate_matrix,
    random_symplectic,
    random_symplectic_rows,
    sp_order,
    swap_halves,
)
from bicliff.groups import (
    bfs_closure,
    coset_key,
    coset_keys,
    dn_generators,
    dn_index,
    dn_order,
    is_in_dn,
)
from bicliff.states import base, werner_stats
from _scalar_reference import apply, kn_generators, preimage_oracle, rref


def random_word(gens, rng, length=8):
    m = gens[int(rng.integers(len(gens)))]
    for _ in range(length - 1):
        m = m @ gens[int(rng.integers(len(gens)))]
    return m


def test_dn_generator_sets():
    g1 = dn_generators(1)
    assert {str(g) for g in g1.gates} == {"H[1]", "S[1]"}
    g2 = dn_generators(2)
    assert len(g2.gates) == 4
    g3 = dn_generators(3)
    assert len(g3.gates) == 8
    kinds = sorted(str(g) for g in g3.gates)
    assert "CNOT[2, 3]" in kinds and "CNOT[3, 2]" in kinds and "CNOT[2, 1]" in kinds


def test_dn_generators_preserve_base():
    for n in (2, 3, 4):
        mask_ok = set(base(n))
        for g in dn_generators(n).gates:
            m = gate_matrix(g, n)
            assert {apply(m, v) for v in base(n)} == mask_ok
            assert is_in_dn(m)


def test_dn_orders():
    assert dn_order(1) == 6
    assert dn_order(2) == 48
    assert dn_order(3) == 4608


def test_dn_closure_matches_order():
    for n in (2, 3):
        closure = bfs_closure(dn_generators(n).matrices())
        assert len(closure) == dn_order(n)


def test_dn_index_values():
    assert dn_index(1) == 1
    assert dn_index(2) == 15
    assert dn_index(4) == 11475
    assert dn_index(5) == 782595
    for n in range(1, 17):
        assert dn_order(n) * dn_index(n) == sp_order(n)


def test_membership():
    assert not is_in_dn(gate_matrix(H(2), 2))
    assert is_in_dn(gate_matrix(CZ(2, 3), 3))
    n, i, j = 3, 2, 1
    sij = gate_matrix(S(j), n) @ gate_matrix(CNOT(i, j), n)
    assert is_in_dn(sij @ sij)
    rng = np.random.default_rng(0)
    gens = dn_generators(3).matrices()
    for _ in range(20):
        assert is_in_dn(random_word(gens, rng))


def test_base_pillar_preservation_equivalence():
    # exhaustive n=2: preserving the base is the same as preserving the pillars
    from bicliff.states import pillars

    gens = [gate_matrix(g, 2) for g in (H(1), H(2), S(1), S(2), CNOT(1, 2), CNOT(2, 1))]
    every = bfs_closure(gens)
    assert len(every) == 720
    pset = set(pillars(2))
    bset = set(base(2))
    for m in every:
        keeps_base = {apply(m, v) for v in bset} == bset
        keeps_pillars = {apply(m, v) for v in pset} == pset
        assert keeps_base == keeps_pillars
    # sampled n=3, 4
    rng = np.random.default_rng(1)
    for n in (3, 4):
        pset = set(pillars(n))
        bset = set(base(n))
        for _ in range(1000):
            m = random_symplectic(n, rng)
            keeps_base = {apply(m, v) for v in bset} == bset
            keeps_pillars = {apply(m, v) for v in pset} == pset
            assert keeps_base == keeps_pillars


def test_coset_key_identity():
    for n in (1, 2, 3):
        assert coset_key(SymplecticMatrix.identity(n)) == rref(base(n))


def test_coset_key_left_invariance():
    rng = np.random.default_rng(3)
    gens = dn_generators(3).matrices()
    for _ in range(200):
        m = random_symplectic(3, rng)
        d = random_word(gens, rng, length=6)
        assert coset_key(d @ m) == coset_key(m)


def test_coset_keys_match_coset_key():
    # oracle: the reduced basis of the brute-force base preimage
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        rows = random_symplectic_rows(n, rng, 200)
        want = [rref(preimage_oracle(SymplecticMatrix(n, r), n)[0]) for r in rows.tolist()]
        got = coset_keys(rows, n)
        assert got.shape == (200, n - 1)
        assert list(map(tuple, got.tolist())) == want
        assert [coset_key(SymplecticMatrix(n, r)) for r in rows.tolist()] == want


def test_coset_key_of_dependent_rows_is_shorter():
    # coset_keys pads a short basis with zeros; coset_key leaves them out
    rng = np.random.default_rng(12)
    for n in range(2, 7):
        rows = rng.integers(0, 1 << (2 * n), size=(50, 2 * n), dtype=np.uint64)
        rows[::2, 1] = 0
        for r, got in zip(rows.tolist(), coset_keys(rows, n).tolist()):
            want = rref([swap_halves(v, n) for v in r[1:n]])
            assert coset_key(SymplecticMatrix(n, r)) == want
            assert got == [*want] + [0] * (n - 1 - len(want))
        assert any(len(coset_key(SymplecticMatrix(n, r))) < n - 1 for r in rows.tolist())


def test_coset_key_counts_exhaustive_n2():
    gens = [gate_matrix(g, 2) for g in (H(1), H(2), S(1), S(2), CNOT(1, 2), CNOT(2, 1))]
    keys = {coset_key(m) for m in bfs_closure(gens)}
    assert len(keys) == 15


def test_kn_generators():
    k1 = kn_generators(1)
    assert len(k1.gates) == 2
    assert len(bfs_closure(k1.matrices())) == 6
    assert len(kn_generators(3).gates) == 9


def test_kn_right_invariance_of_werner_stats():
    rng = np.random.default_rng(5)
    n = 3
    for g in kn_generators(n).matrices():
        for _ in range(3):
            m = random_symplectic(n, rng)
            assert werner_stats(m @ g, n) == werner_stats(m, n)


def test_dn_left_invariance_of_sorted_stats():
    rng = np.random.default_rng(6)
    n = 3
    gens = dn_generators(n).matrices()
    for _ in range(15):
        m = random_symplectic(n, rng)
        d = random_word(gens, rng, length=5)
        assert werner_stats(d @ m, n) == werner_stats(m, n)
