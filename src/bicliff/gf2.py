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
from math import prod

MAX_PAIRS = 16  # 2n <= 32 bits keeps every vector in one machine word


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_PAIRS:
        raise ValueError(f"pair count must be in [1, {MAX_PAIRS}], got {n}")


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
    Column masks are cached on first use because the matrix-vector product
    XORs one column per set input bit.
    """

    __slots__ = ("n", "rows", "_cols")

    def __init__(self, n: int, rows) -> None:
        _check_n(n)
        rows = tuple(rows)
        if len(rows) != 2 * n:
            raise ValueError(f"expected {2 * n} rows, got {len(rows)}")
        width = 1 << (2 * n)
        if any(r >= width or r < 0 for r in rows):
            raise ValueError("row mask exceeds 2n bits")
        self.n = n
        self.rows = rows
        self._cols = None

    @classmethod
    def identity(cls, n: int) -> "SymplecticMatrix":
        return cls(n, tuple(1 << i for i in range(2 * n)))

    @property
    def cols(self) -> tuple:
        if self._cols is None:
            nn = 2 * self.n
            cols = [0] * nn
            for i, row in enumerate(self.rows):
                while row:
                    low = row & -row
                    cols[low.bit_length() - 1] |= 1 << i
                    row ^= low
            self._cols = tuple(cols)
        return self._cols

    def apply(self, v: int) -> int:
        """Matrix-vector product M @ v (v as column vector)."""
        cols = self.cols
        out = 0
        while v:
            low = v & -v
            out ^= cols[low.bit_length() - 1]
            v ^= low
        return out

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

    def inverse(self) -> "SymplecticMatrix":
        """Inverse via M^-1 = Omega M^T Omega, valid for symplectic M."""
        n = self.n
        nn = 2 * n
        cols = self.cols
        return SymplecticMatrix(
            n, tuple(swap_halves(cols[(i + n) % nn], n) for i in range(nn))
        )

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
    """True iff M^T Omega M = Omega, i.e. the columns form a symplectic basis."""
    n = m.n
    nn = 2 * n
    cols = m.cols
    for i in range(nn):
        for j in range(i, nn):
            want = 1 if j == i + n else 0
            if symplectic_inner(cols[i], cols[j], n) != want:
                return False
    return True


def symplectic_inverse(m: SymplecticMatrix) -> SymplecticMatrix:
    """Inverse of a symplectic matrix; raises if the input is not symplectic."""
    if not is_symplectic(m):
        raise ValueError("matrix is not symplectic")
    return m.inverse()


def sp_order(n: int) -> int:
    """Order of Sp(2n, F2): 2^(n^2) * prod_{j=1..n} (4^j - 1)."""
    _check_n(n)
    return (1 << (n * n)) * prod(4**j - 1 for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# Row reduction, canonical subspace bases, linear solving
# ---------------------------------------------------------------------------


def rref(vectors) -> tuple:
    """Reduced row-echelon basis of the span, rows in decreasing pivot order.

    The pivot of a row is its highest set bit; every pivot bit is cleared in
    all other rows, which makes the result a canonical identifier of the
    subspace: two generating sets span the same subspace iff their reduced
    bases are identical tuples.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        for p, row in pivots.items():
            if (v >> p) & 1:
                v ^= row
        if v == 0:
            continue
        p = v.bit_length() - 1
        for q, row in list(pivots.items()):
            if (row >> p) & 1:
                pivots[q] = row ^ v
        pivots[p] = v
    return tuple(pivots[p] for p in sorted(pivots, reverse=True))


def span(basis) -> list:
    """All 2^k elements of the span of k independent vectors."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out


def solve_gf2(constraints, nbits: int):
    """Solve a linear system over GF(2).

    Each constraint is a pair (mask, rhs) demanding parity(mask & x) == rhs.
    Returns (particular, nullspace_basis) or None if inconsistent.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in constraints:
        for p, (pm, pr) in list(pivots.items()):
            if (mask >> p) & 1:
                mask ^= pm
                rhs ^= pr
        if mask == 0:
            if rhs:
                return None
            continue
        p = mask.bit_length() - 1
        for q, (qm, qr) in list(pivots.items()):
            if (qm >> p) & 1:
                pivots[q] = (qm ^ mask, qr ^ rhs)
        pivots[p] = (mask, rhs)

    particular = 0
    for p, (_, rhs) in pivots.items():
        if rhs:
            particular |= 1 << p
    basis = []
    for f in range(nbits):
        if f in pivots:
            continue
        v = 1 << f
        for p, (mask, _) in pivots.items():
            if (mask >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return particular, basis


def min_affine(particular: int, basis) -> int:
    """Smallest integer in the affine space particular + span(basis)."""
    for b in rref(basis):
        particular = min(particular, particular ^ b)
    return particular


def random_symplectic(n: int, rng) -> SymplecticMatrix:
    """Uniformly random element of Sp(2n, F2).

    Images of the standard symplectic basis pairs (e_i, e_{n+i}) are chosen
    sequentially, each uniformly from the affine solution set of the inner
    products fixed so far.  Every step's choice count is independent of the
    history, so the sampled matrix is exactly uniform.
    """
    _check_n(n)
    nn = 2 * n
    fs: list[int] = []
    gs: list[int] = []
    for _ in range(n):
        cons = [(swap_halves(u, n), 0) for u in fs] + [
            (swap_halves(u, n), 0) for u in gs
        ]
        part, basis = solve_gf2(cons, nn)
        f = 0
        while f == 0:
            f = part ^ _random_combination(basis, rng)
        cons.append((swap_halves(f, n), 1))
        part, basis = solve_gf2(cons, nn)
        g = part ^ _random_combination(basis, rng)
        fs.append(f)
        gs.append(g)
    cols = fs + gs
    rows = [0] * nn
    for j, c in enumerate(cols):
        for i in range(nn):
            if (c >> i) & 1:
                rows[i] |= 1 << j
    return SymplecticMatrix(n, rows)


def _random_combination(basis, rng) -> int:
    if not basis:
        return 0
    coeff = int(rng.integers(0, 1 << len(basis)))
    v = 0
    for i, b in enumerate(basis):
        if (coeff >> i) & 1:
            v ^= b
    return v


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
    _check_n(n)
    rows = [1 << i for i in range(2 * n)]
    apply_gate_rows(rows, g, n)
    return SymplecticMatrix(n, rows)
