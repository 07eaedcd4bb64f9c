import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _scalar_reference as scalar

from bicliff.gf2 import (
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
    is_symplectic_rows,
    least_null_vectors,
    least_solutions,
    random_symplectic,
    random_symplectic_rows,
    rref_rows,
    swap_halves,
    symplectic_inner,
)
from bicliff import gf2
from bicliff.groups import bfs_closure
from bicliff.orders import sp_order


# --- independent oracles -----------------------------------------------------

PAULIS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_all(names):
    out = np.eye(1)
    for nm in names:
        out = np.kron(out, PAULIS[nm])
    return out


def to_dense(m: SymplecticMatrix) -> np.ndarray:
    nn = 2 * m.n
    return np.array([[(m.rows[i] >> j) & 1 for j in range(nn)] for i in range(nn)])


def omega(n: int) -> np.ndarray:
    z = np.zeros((n, n), dtype=int)
    i = np.eye(n, dtype=int)
    return np.block([[z, i], [i, z]])


def dense_is_symplectic(a: np.ndarray) -> bool:
    n = a.shape[0] // 2
    return np.array_equal(a.T @ omega(n) @ a % 2, omega(n))


def gf2_inverse(a: np.ndarray) -> np.ndarray:
    """Gaussian-elimination inverse over GF(2) (test oracle)."""
    n = a.shape[0]
    aug = np.concatenate([a.copy() % 2, np.eye(n, dtype=int)], axis=1)
    row = 0
    for col in range(n):
        piv = next(r for r in range(row, n) if aug[r, col])
        aug[[row, piv]] = aug[[piv, row]]
        for r in range(n):
            if r != row and aug[r, col]:
                aug[r] ^= aug[row]
        row += 1
    return aug[:, n:]


# --- symplectic inner product ----------------------------------------------


def test_inner_x_z_same_qubit_anticommute():
    for n in (1, 2, 5):
        assert symplectic_inner(1, 1 << n, n) == 1


def test_inner_self_is_zero():
    rng = np.random.default_rng(0)
    for n in (1, 3, 7):
        for _ in range(50):
            v = int(rng.integers(0, 1 << (2 * n)))
            assert symplectic_inner(v, v, n) == 0


def test_inner_matches_matrix_commutator():
    # X(x)I vs I(x)Z commute; oracle: dense commutator of the 4x4 matrices
    a = kron_all(["X", "I"])
    b = kron_all(["I", "Z"])
    commute = np.allclose(a @ b, b @ a)
    v = 0b0001  # X-part on qubit 1
    w = 0b1000  # Z-part on qubit 2
    assert commute
    assert symplectic_inner(v, w, 2) == 0

    # exhaustive n=2 check against the dense commutator
    names = ["I", "X", "Y", "Z"]
    code = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    for v in range(16):
        for w in range(16):
            mv = kron_all([code[(v >> i & 1, v >> (2 + i) & 1)] for i in range(2)])
            mw = kron_all([code[(w >> i & 1, w >> (2 + i) & 1)] for i in range(2)])
            anti = np.allclose(mv @ mw, -mw @ mv) and not np.allclose(mv @ mw, 0)
            assert symplectic_inner(v, w, 2) == (1 if anti else 0)


def test_inner_dimension_mismatch_is_callers_problem():
    # same bits, different n give different answers; the API takes n explicitly
    assert symplectic_inner(0b11, 0b11, 1) == 0
    assert symplectic_inner(0b0011, 0b0011, 2) == 0


# --- symplectic predicate and inverse ----------------------------------------


def test_identity_is_symplectic():
    for n in (1, 2, 4):
        assert is_symplectic(SymplecticMatrix.identity(n))


def test_hadamard_image_is_symplectic():
    m = gate_matrix(H(1), 1)
    assert m.rows == (0b10, 0b01)
    assert dense_is_symplectic(to_dense(m))
    assert is_symplectic(m)


def test_swapped_identity_rows_not_symplectic():
    rows = [1 << i for i in range(4)]
    rows[0], rows[1] = rows[1], rows[0]
    m = SymplecticMatrix(2, rows)
    assert not dense_is_symplectic(to_dense(m))
    assert not is_symplectic(m)


def test_inverse_of_identity():
    m = SymplecticMatrix.identity(3)
    assert scalar.inverse(m) == m


def test_inverse_matches_elimination_oracle():
    m = gate_matrix(S(1), 2)
    inv = scalar.inverse(m)
    assert np.array_equal(to_dense(inv), gf2_inverse(to_dense(m)))
    assert (m @ inv) == SymplecticMatrix.identity(2)


def test_inverse_random_roundtrip():
    rng = np.random.default_rng(42)
    ident = SymplecticMatrix.identity(3)
    for _ in range(100):
        m = random_symplectic(3, rng)
        inv = scalar.inverse(m)
        assert m @ inv == ident
        assert np.array_equal(to_dense(inv), gf2_inverse(to_dense(m)))


def test_matvec_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_symplectic(3, rng)
        dense = to_dense(m)
        v = int(rng.integers(0, 1 << 6))
        vec = np.array([(v >> i) & 1 for i in range(6)])
        want = dense @ vec % 2
        got = scalar.apply(m, v)
        assert [(got >> i) & 1 for i in range(6)] == list(want)


# --- sampling ----------------------------------------------------------------


def test_random_symplectic_always_symplectic():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        for _ in range(25):
            assert is_symplectic(random_symplectic(n, rng))


def test_random_symplectic_uniform_n1():
    rng = np.random.default_rng(123)
    _, counts = np.unique(random_symplectic_rows(1, rng, 6000), axis=0, return_counts=True)
    assert len(counts) == 6 == sp_order(1)
    x = float(((counts - 1000) ** 2).sum() / 1000)  # Pearson's statistic, 5 degrees of freedom
    # the chi-square survival function in closed form for 5 degrees of freedom
    p = math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * (1 + x / 3)
    assert p > 0.01


def test_random_symplectic_covers_sp4():
    rng = np.random.default_rng(5)
    seen = np.unique(random_symplectic_rows(2, rng, 25000), axis=0)
    assert len(seen) == 720 == sp_order(2)


def test_scalar_draw_is_top_bits_of_uint32_stream():
    # random_symplectic_rows reads the scalar sampler's draws off one
    # uint32 stream; a numpy change to bounded integers must fail here first
    for seed in range(3):
        ks = [k for k in range(1, 33)] + [32 - k for k in range(31)] + [5, 2, 9]
        for stop in (1, 2, 7, len(ks)):  # odd counts leave half a 64-bit word
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            scalar = [int(a.integers(0, 1 << k)) for k in ks[:stop]]
            stream = b.integers(0, 1 << 32, size=stop, dtype=np.uint32)
            assert scalar == [int(x) >> (32 - k) for k, x in zip(ks, stream)]
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", range(1, 17))
def test_random_symplectic_rows_match_scalar_draws(n):
    for seed in (0, 1, 2):
        for count in (1, 7, 1024) if n <= 6 else (1, 7, 32):
            a = np.random.default_rng([seed, n])
            b = np.random.default_rng([seed, n])
            want = [scalar.random_symplectic(n, a).rows for _ in range(count)]
            got = random_symplectic_rows(n, b, count)
            assert got.dtype == np.uint64 and got.shape == (count, 2 * n)
            assert list(map(tuple, got.tolist())) == want
            if count <= 32:
                # the library's one-row sampler, one draw at a time
                c = np.random.default_rng([seed, n])
                assert [random_symplectic(n, c).rows for _ in range(count)] == want
                assert c.bit_generator.state == b.bit_generator.state
            assert a.integers(0, 1 << 40) == b.integers(0, 1 << 40)
            assert a.bit_generator.state == b.bit_generator.state


def test_random_symplectic_rows_redraw_a_short_stream(monkeypatch):
    parse = gf2._parse_stream
    sizes = []

    def short_once(stream, n, count):
        sizes.append(len(stream))
        return None if len(sizes) == 1 else parse(stream, n, count)

    monkeypatch.setattr(gf2, "_parse_stream", short_once)
    a = np.random.default_rng(4)
    b = np.random.default_rng(4)
    got = random_symplectic_rows(3, b, 5)
    assert list(map(tuple, got.tolist())) == [scalar.random_symplectic(3, a).rows for _ in range(5)]
    assert a.bit_generator.state == b.bit_generator.state
    assert sizes[1] == 2 * sizes[0]


def test_parse_stream_repeats_zero_f_draws():
    # n=1: a 2-bit f draw, repeated while zero, then a 1-bit g draw
    top = 1 << 31
    stream = np.array([0, top >> 2, top, top], dtype=np.uint32)
    coeffs, used = gf2._parse_stream(stream, 1, 1)
    assert coeffs.tolist() == [[2, 1]] and used == 4
    assert gf2._parse_stream(stream[:3], 1, 1) is None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 8),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    st.integers(-2, 40),
    st.integers(0, (1 << 32) - 1),
)
def test_parse_stream_matches_scalar_chain(n, count, zero_share, extra, seed):
    # a share of the values has its top 11 bits zero, so f draws repeat
    rng = np.random.default_rng(seed)
    size = max(0, 2 * n * count + extra)
    stream = rng.integers(0, 1 << 32, size=size, dtype=np.uint32)
    stream[rng.random(size) < zero_share] >>= 11
    want = scalar.parse_stream(stream, n, count)
    got = gf2._parse_stream(stream, n, count)
    if want is None:
        assert got is None
    else:
        coeffs, used = got
        assert coeffs.shape == (count, 2 * n)
        assert (coeffs.tolist(), used) == want


# --- batched reduction ---------------------------------------------------------


def _random_systems(rng, count, m, nbits):
    """Rows of low rank as often as full rank: combinations of a few vectors."""
    gens = rng.integers(0, 1 << nbits, size=(count, 3), dtype=np.uint64)
    pick = rng.integers(0, 2, size=(count, m, 3), dtype=np.uint64)
    full = rng.integers(0, 1 << nbits, size=(count, m), dtype=np.uint64)
    low = np.bitwise_xor.reduce(pick * gens[:, None, :], axis=-1)
    return np.where(rng.random((count, 1)) < 0.5, low, full)


def test_rref_rows_match_rref():
    rng = np.random.default_rng(8)
    for m in range(0, 9):
        rows = _random_systems(rng, 300, m, 9)
        got = rref_rows(rows.reshape(3, 100, m)).reshape(300, m).tolist()
        for r, g in zip(rows.tolist(), got):
            want = scalar.rref(r)
            assert tuple(g) == want + (0,) * (m - len(want))


def test_least_solutions_match_brute_force():
    rng = np.random.default_rng(9)
    nbits = 6
    xs = np.arange(1 << nbits, dtype=np.uint64)
    for m in range(0, 7):
        masks = _random_systems(rng, 200, m, nbits)
        # a right-hand side of some x keeps the system consistent
        target = rng.integers(0, 1 << nbits, size=(200, 1), dtype=np.uint64)
        rhs = np.bitwise_count(masks & target) & 1
        got = least_solutions(masks | (rhs.astype(np.uint64) << nbits), nbits)
        ok = ((np.bitwise_count(masks[:, None, :] & xs[:, None]) & 1) == rhs[:, None, :]).all(-1)
        assert got.tolist() == ok.argmax(axis=1).tolist()
        null = ((np.bitwise_count(masks[:, None, :] & xs[:, None]) & 1) == 0).all(-1)
        null[:, 0] = False
        has = null.any(axis=1)
        got = least_null_vectors(masks, nbits)
        assert got[has].tolist() == null.argmax(axis=1)[has].tolist()


def test_is_symplectic_rows_matches_is_symplectic():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3, 4):
        good = random_symplectic_rows(n, rng, 100)
        flip = rng.integers(0, 2 * n, size=100)
        bad = good.copy()
        bad[np.arange(100), flip] ^= np.uint64(1) << rng.integers(0, 2 * n, size=100).astype(np.uint64)
        noise = rng.integers(0, 1 << (2 * n), size=(100, 2 * n), dtype=np.uint64)
        for rows in (good, bad, noise):
            want = [dense_is_symplectic(to_dense(SymplecticMatrix(n, r))) for r in rows.tolist()]
            assert is_symplectic_rows(rows, n).tolist() == want
            assert [is_symplectic(SymplecticMatrix(n, r)) for r in rows.tolist()] == want
        assert is_symplectic_rows(good, n).all() and not is_symplectic_rows(bad, n).all()


# --- group order -------------------------------------------------------------


def test_sp_order_values():
    assert sp_order(1) == 6
    assert sp_order(2) == 720
    assert sp_order(3) == 1451520
    assert sp_order(5) == 24815256521932800


def test_generator_closure_sizes():
    gens1 = [gate_matrix(g, 1) for g in (H(1), S(1))]
    assert len(bfs_closure(gens1)) == 6
    gens2 = [gate_matrix(g, 2) for g in (H(1), H(2), S(1), S(2), CNOT(1, 2), CNOT(2, 1))]
    assert len(bfs_closure(gens2)) == 720


# --- canonical subspace keys ---------------------------------------------------


def test_subspace_key_zero():
    assert scalar.rref([0]) == ()
    assert scalar.rref([]) == ()


def test_subspace_key_dependent_generators():
    e1, e2 = 0b0001, 0b0010
    assert scalar.rref([e1, e1 ^ e2, e2]) == (e2, e1)


def test_subspace_key_invariant_under_recombination():
    rng = np.random.default_rng(11)
    nbits = 8
    for _ in range(30):
        basis = []
        while len(scalar.rref(basis)) < 3:
            basis.append(int(rng.integers(1, 1 << nbits)))
            basis = list(scalar.rref(basis))
        full = sorted(scalar.span(basis))
        key = scalar.rref(basis)
        assert len(full) == 8
        for _ in range(10):
            gens = [full[int(i)] for i in rng.integers(1, 8, size=5)]
            if len(scalar.rref(gens)) == 3:
                assert scalar.rref(gens) == key
        # oracle: the key's span is the original subspace
        assert sorted(scalar.span(key)) == full


# --- gates --------------------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (1, 2))
    with pytest.raises(ValueError):
        Gate("FOO", (1,))
    with pytest.raises(ValueError):
        gate_matrix(H(3), 2)


def test_gate_images_are_symplectic():
    for g in (H(1), S(2), X(1), CNOT(1, 2), CNOT(2, 1), CZ(1, 2), SWAP(1, 2)):
        assert is_symplectic(gate_matrix(g, 2))


def test_cnot_is_involution():
    m = gate_matrix(CNOT(2, 1), 2)
    assert m @ m == SymplecticMatrix.identity(2)


def test_pauli_gate_maps_to_identity():
    assert gate_matrix(X(1), 2) == SymplecticMatrix.identity(2)


def test_phase_cnot_square_row_action():
    # (S_j CNOT_ij)^2 adds row i to row n+j and rows i and j to row n+i
    n, i, j = 3, 2, 1
    m = gate_matrix(S(j), n) @ gate_matrix(CNOT(i, j), n)
    m = m @ m
    expected = [1 << k for k in range(2 * n)]
    expected[n + j - 1] ^= 1 << (i - 1)
    expected[n + i - 1] ^= (1 << (i - 1)) | (1 << (j - 1))
    assert list(m.rows) == expected


def test_inner_product_preserved_by_symplectic_action():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = random_symplectic(3, rng)
        v = int(rng.integers(0, 1 << 6))
        w = int(rng.integers(0, 1 << 6))
        image = symplectic_inner(scalar.apply(m, v), scalar.apply(m, w), 3)
        assert image == symplectic_inner(v, w, 3)


def test_product_and_inverse_stay_symplectic():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = random_symplectic(2, rng)
        b = random_symplectic(2, rng)
        assert is_symplectic(a @ b)
        assert is_symplectic(scalar.inverse(a))


def test_swap_halves_roundtrip():
    assert swap_halves(0b0011, 2) == 0b1100
    assert swap_halves(swap_halves(0b1011, 2), 2) == 0b1011
