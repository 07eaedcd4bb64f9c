"""Bit-packed linear algebra over GF(2) and the symplectic group Sp(2n, F2).

A length-2n binary vector is stored as a plain Python int.  Bit k (0-indexed)
holds coordinate k+1, so the integer value reads coordinate 1 as the least
significant bit.  For a Pauli string on n qubit pairs, bit i (0 <= i < n) is
the X-part of qubit i+1 and bit n+i is the Z-part of qubit i+1.  The all-zero
vector is the identity string.

Matrices are tuples of 2n row masks (row i of the tuple is row i+1 of the
matrix).  The symplectic form is Omega = [[0, I_n], [I_n, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orders import check_pair_count


def swap_halves(v: int, n: int) -> int:
    """Exchange the X- and Z-halves of a 2n-bit vector."""
    mask = (1 << n) - 1
    return ((v >> n) & mask) | ((v & mask) << n)


def symplectic_inner(v: int, w: int, n: int) -> int:
    """The symplectic inner product v^T Omega w over GF(2).

    Equals 1 exactly when the Pauli strings encoded by v and w anti-commute.
    """
    return (v & swap_halves(w, n)).bit_count() & 1


class SymplecticMatrix:
    """An element of Sp(2n, F2), stored as 2n bit-packed row masks.

    Instances are immutable values; equality and hashing use (n, rows).
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows) -> None:
        check_pair_count(n)
        rows = tuple(rows)
        if len(rows) != 2 * n:
            raise ValueError(f"expected {2 * n} rows, got {len(rows)}")
        width = 1 << (2 * n)
        if any(r >= width or r < 0 for r in rows):
            raise ValueError("row mask exceeds 2n bits")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "SymplecticMatrix":
        return cls(n, tuple(1 << i for i in range(2 * n)))

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if self.n != other.n:
            raise ValueError("pair count mismatch")
        orows = other.rows
        out = []
        for row in self.rows:
            acc = 0
            while row:
                low = row & -row
                acc ^= orows[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        return SymplecticMatrix(self.n, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymplecticMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"SymplecticMatrix(n={self.n}, rows={self.rows})"

    def __str__(self) -> str:
        nn = 2 * self.n
        lines = []
        for r in self.rows:
            lines.append(" ".join(str((r >> j) & 1) for j in range(nn)))
        return "\n".join(lines)


def is_symplectic(m: SymplecticMatrix) -> bool:
    """True iff M^T Omega M = Omega: the one-matrix case of `is_symplectic_rows`."""
    return bool(is_symplectic_rows(np.array(m.rows, dtype=np.uint64), m.n))


def is_symplectic_rows(rows, n: int) -> np.ndarray:
    """`is_symplectic` of many matrices at once, from a (..., 2n) array of row masks.

    Tests M Omega M^T = Omega, which holds exactly when M^T Omega M = Omega:
    row i must anti-commute with row (i + n) mod 2n and with no other row.
    """
    nn = 2 * n
    swapped = swap_halves(rows, n)
    ok = np.ones(rows.shape[:-1], dtype=bool)
    for i in range(nn):
        odd = (np.bitwise_count(rows[..., i : i + 1] & swapped) & 1) != 0
        ok &= (odd == (np.arange(nn) == (i + n) % nn)).all(axis=-1)
    return ok


# ---------------------------------------------------------------------------
# Batched row reduction and uniform sampling: many small systems at once,
# rows as uint64 arrays
# ---------------------------------------------------------------------------


def _top_bit(v: np.ndarray) -> np.ndarray:
    """The highest set bit of each entry, as a mask (0 for 0)."""
    for shift in (1, 2, 4, 8, 16, 32):
        v = v | (v >> shift)
    return v ^ (v >> 1)


def _low_bit(v: np.ndarray) -> np.ndarray:
    """The lowest set bit of each entry, as a mask (0 for 0)."""
    return v & (~v + 1)


def _insert(basis: np.ndarray, pivots: np.ndarray, j: int, v: np.ndarray, pivot_bit) -> None:
    """Add row v of every system to its reduced basis, in place, at column j.

    basis and pivots have shape (..., m); each nonzero basis row holds its
    pivot bit (pivots[..., r]) and no other row's.  v is reduced against the
    basis, its pivot_bit becomes a new pivot and is cleared from every other
    row.  A dependent v leaves a zero row with pivot 0.
    """
    # each pivot is set in its own row only, so one XOR of the rows whose
    # pivots v holds clears them all
    v = v ^ np.bitwise_xor.reduce(
        np.where((v[..., None] & pivots) != 0, basis, 0), axis=-1
    )
    p = pivot_bit(v)
    basis ^= np.where((basis & p[..., None]) != 0, v[..., None], 0)
    basis[..., j] = v
    pivots[..., j] = p


def _eliminate(rows, pivot_bit) -> tuple:
    """Gauss-Jordan elimination of a batch of systems: (basis, pivots).

    rows has shape (..., m), one system of m row masks per leading index.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    basis = np.zeros_like(rows)
    pivots = np.zeros_like(rows)
    for j in range(rows.shape[-1]):
        _insert(basis, pivots, j, rows[..., j], pivot_bit)
    return basis, pivots


def rref_rows(rows) -> np.ndarray:
    """The reduced row-echelon basis of the span of each of many systems.

    rows is a (..., m) array of row masks.  A reduced row's pivot is its
    highest set bit and is clear in every other row, so two generating sets
    span the same subspace iff their bases are equal.  Each basis comes in
    decreasing pivot order, then zeros, as a uint64 array of rows' shape;
    pivots are distinct highest bits, so sorting the rows gives that order.
    """
    basis, _ = _eliminate(rows, _top_bit)
    return np.flip(np.sort(basis, axis=-1), axis=-1)


def least_solutions(cons, nbits: int) -> np.ndarray:
    """The least solution of each of many consistent systems over GF(2).

    cons is a (..., m) array holding each constraint parity(mask & x) == rhs
    as mask | rhs << nbits.  Eliminating on the lowest bit leaves every other
    bit of a row above its pivot, so the solution whose free bits are all 0
    is the least one: each pivot bit is then its row's rhs.
    """
    basis, pivots = _eliminate(cons, _low_bit)
    return np.bitwise_or.reduce(np.where((basis >> nbits) != 0, pivots, 0), axis=-1)


def least_null_vectors(masks, nbits: int) -> np.ndarray:
    """The least nonzero x with parity(mask & x) == 0 for every mask, per system.

    It is the null vector of the lowest free bit, found by the same lowest-bit
    elimination as `least_solutions`.  Each system must have a free bit.
    """
    basis, pivots = _eliminate(masks, _low_bit)
    free = _low_bit(((1 << nbits) - 1) & ~np.bitwise_or.reduce(pivots, axis=-1))
    hit = (basis & free[..., None]) != 0
    return free | np.bitwise_or.reduce(np.where(hit, pivots, 0), axis=-1)


def random_symplectic_rows(n: int, rng, count: int) -> np.ndarray:
    """Row masks of `count` uniformly random elements of Sp(2n, F2).

    Returns a (count, 2n) uint64 array.  Images f_i, g_i of the standard
    symplectic basis pairs (e_i, e_{n+i}) are chosen in turn, each uniformly
    from the affine solution set of the inner products fixed so far; every
    step's choice count is independent of the history, so each matrix is
    exactly uniform.  Each matrix keeps the reduced null basis of those
    inner products: one vector per free bit, in ascending order, holding that
    free bit and no other.  A draw is the XOR of the null vectors its
    coefficient bits select.  Fixing the inner product with a drawn v makes
    the highest null vector meeting v (inner product 1) a pivot, dropped and
    XORed into every other one meeting v; after f, it is also g's particular
    point, the solution whose free bits are all 0.
    """
    check_pair_count(n)
    nn = 2 * n
    coeffs = _draw_coefficients(n, rng, count)  # uint32, as every 2n-bit vector fits
    bits = np.arange(nn, dtype=np.uint32)
    null = np.tile(np.uint32(1) << bits, (count, 1))
    rows = np.zeros((count, nn), np.uint32)
    for s in range(nn):  # the draws f_0, g_0, f_1, ... are columns 0, n, 1, ...
        # the XOR of the null vectors that the draw's bits select
        v = np.bitwise_xor.reduce(null * ((coeffs[:, s, None] >> bits[: nn - s]) & 1), axis=1)
        if s % 2:
            v ^= point
        null, point = _fix_inner(null, v, n)
        rows |= ((v[:, None] >> bits) & 1) << (s // 2 + n * (s % 2))  # bit r of v to row r
    return rows.astype(np.uint64)


def random_symplectic(n: int, rng) -> SymplecticMatrix:
    """Uniformly random element of Sp(2n, F2): the one-row case of
    `random_symplectic_rows`."""
    return SymplecticMatrix(n, random_symplectic_rows(n, rng, 1)[0].tolist())


def _fix_inner(null: np.ndarray, v: np.ndarray, n: int) -> tuple:
    """(null basis, pivot) once the inner product with v is fixed: the highest
    null vector meeting v, XORed into every one meeting v, itself included."""
    meets = np.bitwise_count(null & swap_halves(v, n)[:, None]) & 1
    k = null.shape[1]
    top = k - 1 - np.argmax(meets[:, ::-1], axis=1)
    pivot = null[np.arange(len(null)), top]
    null = null ^ pivot[:, None] * meets
    return np.where(np.arange(k - 1) < top[:, None], null[:, :-1], null[:, 1:]), pivot


def _draw_coefficients(n: int, rng, count: int) -> np.ndarray:
    """The combination coefficients of `count` matrices, drawn as one
    rng.integers(0, 1 << k) call per k-bit draw would draw them.

    Column s of the (count, 2n) result is the draw for the s-th basis image
    (f_0, g_0, f_1, g_1, ...), of 2n - s bits; f draws repeat while zero.  A
    scalar rng.integers(0, 1 << k), 1 <= k <= 32, takes one value of the
    uint32 stream rng.integers(0, 1 << 32, dtype=np.uint32) and keeps its top
    k bits, so every draw is read off one block of that stream.  Once the
    draws the matrices use are known, rng is reset and advanced past them.
    """
    state = rng.bit_generator.state
    size = count * (2 * n + 1) + 32  # redraws average under 0.42 a matrix
    while True:
        stream = rng.integers(0, 1 << 32, size=size, dtype=np.uint32)
        rng.bit_generator.state = state
        parsed = _parse_stream(stream, n, count)
        if parsed is not None:
            coeffs, used = parsed
            rng.integers(0, 1 << 32, size=used, dtype=np.uint32)
            return coeffs
        size *= 2


def _parse_stream(stream: np.ndarray, n: int, count: int):
    """(coefficients, draws used) of `count` matrices, or None if too short.

    Every stream position is parsed as the start of a matrix at once; then
    the matrices are chained, each starting where the previous one ended, by
    pointer doubling: log2(count) gathers of the start-to-end map.
    """
    nn = 2 * n
    size = len(stream)
    pos = np.arange(size)
    coeffs = np.empty((size, nn), np.uint32)
    for s in range(nn):
        shift = 32 - (nn - s)
        v = stream[np.minimum(pos, size - 1)] >> shift
        if s % 2 == 0:  # an f draw is repeated while it is zero
            redo = np.flatnonzero((v == 0) & (pos < size))
            while redo.size:
                pos[redo] += 1
                v[redo] = stream[np.minimum(pos[redo], size - 1)] >> shift
                redo = redo[(v[redo] == 0) & (pos[redo] < size)]
        coeffs[:, s] = v
        pos += 1
    # matrix k + 1 starts where matrix k ends; size + 1 absorbs every start
    # at or past the stream's end, and every matrix that runs past it
    step = np.minimum(np.append(pos, [size + 1, size + 1]), size + 1)
    starts = np.zeros(count + 1, np.intp)
    m = 1
    while m <= count:  # step is m matrices on: starts m..2m-1 from starts 0..m-1
        starts[m : 2 * m] = step[starts[: min(m, count + 1 - m)]]
        step = step[step]
        m *= 2
    if starts[count] > size:
        return None
    return coeffs[starts[:count]], int(starts[count])


# ---------------------------------------------------------------------------
# Clifford generators as symplectic matrices (left-multiplication row action)
# ---------------------------------------------------------------------------

ONE_QUBIT_KINDS = frozenset({"H", "S", "X"})
TWO_QUBIT_KINDS = frozenset({"CNOT", "CZ", "SWAP"})


@dataclass(frozen=True)
class Gate:
    """A Clifford gate on 1-based qubit indices.

    CNOT carries (control, target).  X maps to the identity matrix because
    Pauli strings are quotiented out of the group.
    """

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind in ONE_QUBIT_KINDS:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} takes one qubit index")
        elif self.kind in TWO_QUBIT_KINDS:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.kind} takes two distinct qubit indices")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if any(q < 1 for q in self.qubits):
            raise ValueError("qubit indices are 1-based")

    def __str__(self) -> str:
        return f"{self.kind}{list(self.qubits)}"


def H(i: int) -> Gate:
    return Gate("H", (i,))


def S(i: int) -> Gate:
    return Gate("S", (i,))


def X(i: int) -> Gate:
    return Gate("X", (i,))


def CNOT(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def CZ(i: int, j: int) -> Gate:
    return Gate("CZ", (i, j))


def SWAP(i: int, j: int) -> Gate:
    return Gate("SWAP", (i, j))


def apply_gate_rows(rows: list, g: Gate, n: int) -> None:
    """In-place row action of left-multiplying by the gate's matrix.

    Applying gates of a circuit in temporal order to an identity row list
    accumulates the product matrix(g_k) @ ... @ matrix(g_1).
    """
    if any(q > n for q in g.qubits):
        raise ValueError(f"gate {g} out of range for n={n}")
    if g.kind == "H":
        i = g.qubits[0] - 1
        rows[i], rows[n + i] = rows[n + i], rows[i]
    elif g.kind == "S":
        i = g.qubits[0] - 1
        rows[n + i] ^= rows[i]
    elif g.kind == "X":
        pass
    elif g.kind == "CNOT":
        i, j = g.qubits[0] - 1, g.qubits[1] - 1
        rows[j] ^= rows[i]
        rows[n + i] ^= rows[n + j]
    elif g.kind == "CZ":
        i, j = g.qubits[0] - 1, g.qubits[1] - 1
        rows[n + j] ^= rows[i]
        rows[n + i] ^= rows[j]
    elif g.kind == "SWAP":
        i, j = g.qubits[0] - 1, g.qubits[1] - 1
        rows[i], rows[j] = rows[j], rows[i]
        rows[n + i], rows[n + j] = rows[n + j], rows[n + i]


def gate_matrix(g: Gate, n: int) -> SymplecticMatrix:
    """The symplectic image of a single Clifford gate."""
    check_pair_count(n)
    rows = [1 << i for i in range(2 * n)]
    apply_gate_rows(rows, g, n)
    return SymplecticMatrix(n, rows)
