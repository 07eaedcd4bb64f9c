"""Clifford circuits: compilation to symplectic matrices and synthesis.

A circuit stores gates in temporal order (first gate acts first); its
symplectic image is the product of the gate matrices with the last gate on
the left.  Synthesis searches the reduced family "CNOTs with control above
target, then CZs, then a Hadamard on every qubit but the first", which is
rich enough to contain a circuit for every protocol; candidates are accepted
on exact Werner-statistics equality with the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import ordered_calls
from .gf2 import CNOT, CZ, Gate, H, SymplecticMatrix, apply_gate_rows
from .states import encode_counts, werner_keys

SYNTH_BLOCK = 4096


@dataclass(frozen=True)
class CliffordCircuit:
    """An ordered list of Clifford gates on n qubits (1-based indices)."""

    n: int
    gates: tuple

    def __post_init__(self):
        for g in self.gates:
            if any(q > self.n for q in g.qubits):
                raise ValueError(f"gate {g} out of range for n={self.n}")

    def __add__(self, other: "CliffordCircuit") -> "CliffordCircuit":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return CliffordCircuit(self.n, self.gates + other.gates)

    def to_json_obj(self) -> list:
        return [{"gate": g.kind, "qubits": list(g.qubits)} for g in self.gates]

    @classmethod
    def from_json_obj(cls, n: int, items) -> "CliffordCircuit":
        return cls(n, tuple(Gate(d["gate"], tuple(d["qubits"])) for d in items))


def circuit_to_symplectic(c: CliffordCircuit) -> SymplecticMatrix:
    """Symplectic image of the whole circuit (temporal composition)."""
    rows = [1 << i for i in range(2 * c.n)]
    for g in c.gates:
        apply_gate_rows(rows, g, c.n)
    return SymplecticMatrix(c.n, rows)


def _place(last: dict, qubits) -> int:
    """One placement step: a gate goes one layer past the latest layer of its
    qubits.  last maps each qubit to its latest layer and is updated."""
    layer = max((last.get(q, 0) for q in qubits), default=0) + 1
    for q in qubits:
        last[q] = layer
    return layer


def _layers(c: CliffordCircuit) -> list:
    """Greedy earliest-possible layering; gates sharing a qubit never share a layer."""
    last: dict = {}
    layers: list[list[Gate]] = []
    for g in c.gates:
        layer = _place(last, g.qubits)
        if layer > len(layers):  # at most one past the last layer
            layers.append([])
        layers[layer - 1].append(g)
    return layers


def depth(c: CliffordCircuit) -> int:
    return len(_layers(c))


def two_qubit_count(c: CliffordCircuit) -> int:
    return sum(1 for g in c.gates if len(g.qubits) == 2)


def ascii_diagram(c: CliffordCircuit) -> str:
    """Plain-text circuit diagram, one wire per qubit.

    Gates are placed like layers, but on half-wire spans, so every two-qubit
    gate reads alone: its cells run unbroken from one end qubit to the
    other, and two such gates in one column keep a bare wire between them.
    """
    width = 5
    last: dict = {}
    columns: list[list[Gate]] = []
    for g in c.gates:
        # a two-qubit gate's extra half wire on each side keeps the bare wire
        pad = len(g.qubits) - 1
        col = _place(last, range(2 * min(g.qubits) - pad, 2 * max(g.qubits) + pad + 1)) - 1
        if col == len(columns):  # at most one past the last column
            columns.append([])
        columns[col].append(g)
    grid = [["-" * width for _ in columns] for _ in range(c.n)]
    for col, placed in enumerate(columns):
        for g in placed:
            top, bottom = min(g.qubits) - 1, max(g.qubits) - 1
            if len(g.qubits) == 1:
                grid[top][col] = f"-[{g.kind}]-".center(width, "-")
                continue
            for q in range(top + 1, bottom):
                grid[q][col] = "--|--"
            if g.kind == "CNOT":
                ctrl, tgt = g.qubits[0] - 1, g.qubits[1] - 1
                grid[ctrl][col] = "--o--"
                grid[tgt][col] = "--x--"
            elif g.kind == "CZ":
                grid[top][col] = grid[bottom][col] = "--o--"
            else:  # SWAP
                grid[top][col] = grid[bottom][col] = "--%--"
    return "\n".join(f"q{q + 1}: " + "".join(grid[q]) for q in range(c.n))


def hadamard_layer(n: int) -> tuple:
    """H on every qubit except the kept pair."""
    return tuple(H(i) for i in range(2, n + 1))


def published_circuits() -> dict:
    """The known lowest-depth circuits attaining the best Werner fidelity.

    Keyed by pair count (4..8); each ends with the Hadamard layer on the
    measured qubits, the computational-basis readout itself is implicit.
    """
    circuits = {
        4: [CNOT(4, 1), CZ(2, 3), CZ(1, 2), CZ(3, 4)],
        5: [
            CNOT(3, 1), CNOT(5, 1), CNOT(4, 3),
            CZ(1, 3), CZ(2, 5), CZ(2, 3), CZ(4, 5),
        ],
        6: [
            CNOT(3, 1), CNOT(3, 2), CNOT(5, 1), CNOT(4, 3),
            CZ(5, 6), CZ(2, 3), CZ(1, 3), CZ(2, 5),
        ],
        7: [
            CNOT(5, 4), CNOT(3, 1), CNOT(5, 3), CNOT(2, 1),
            CZ(6, 7), CZ(2, 6), CZ(1, 3), CZ(2, 4), CZ(3, 7), CZ(3, 4), CZ(5, 6),
        ],
        8: [
            CNOT(8, 3), CNOT(7, 6), CNOT(3, 2), CNOT(8, 4),
            CNOT(4, 1), CNOT(8, 7), CNOT(6, 4),
            CZ(3, 5), CZ(1, 7), CZ(5, 6), CZ(4, 7), CZ(3, 7), CZ(2, 4),
        ],
    }
    return {
        n: CliffordCircuit(n, tuple(gates) + hadamard_layer(n))
        for n, gates in circuits.items()
    }


# ---------------------------------------------------------------------------
# Randomised synthesis in the reduced form
# ---------------------------------------------------------------------------


@dataclass
class SynthesisResult:
    circuit: object  # CliffordCircuit or None
    trials_used: int
    hits: int
    message: str = ""


def _downward_pairs(n: int) -> list:
    return [(i, j) for i in range(2, n + 1) for j in range(1, i)]


def _all_pairs(n: int) -> list:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _block_rows(n, lengths, starts, cnot_choices, cz_masks) -> np.ndarray:
    """Row masks of every candidate of a block, shape (size, 2n).

    One masked pass per CNOT position and one per CZ pair apply the gates of
    all candidates at once, in the same order as the gate list of each.
    """
    size = len(lengths)
    down = np.array(_downward_pairs(n)) - 1
    rows = np.tile(1 << np.arange(2 * n, dtype=np.int64), (size, 1))
    for p in range(int(lengths.max(initial=0))):
        idx = np.flatnonzero(lengths > p)
        i, j = down[cnot_choices[starts[idx] + p]].T
        rows[idx, j] ^= rows[idx, i]
        rows[idx, n + i] ^= rows[idx, n + j]
    for p, (i, j) in enumerate(_all_pairs(n)):
        idx = np.flatnonzero((cz_masks >> p) & 1)
        rows[idx, n + j - 1] ^= rows[idx, i - 1]
        rows[idx, n + i - 1] ^= rows[idx, j - 1]
    h = np.arange(1, n)
    rows[:, np.r_[h, n + h]] = rows[:, np.r_[n + h, h]]
    return rows


def _matches(rows, n: int, key) -> np.ndarray:
    """Which row sets of a (..., 2n) array have the encoded target key, shape (...)."""
    # 2n <= 16 bits for the n <= 8 that werner_keys supports
    return (werner_keys(np.asarray(rows, np.uint16), n) == key).all(axis=-1)


def _synth_block(n, seed, count, block, size, key):
    """Scan one block of random candidates with `count` two-qubit gates each;
    return (hits, best), best the (depth, index_in_block, circuit) of the
    block's least-depth accepted candidate, or None.

    A candidate draws its CNOT count uniformly from the feasible range and a
    uniform subset of the CZ pairs for the rest.  All are tested as arrays
    against the `encode_counts` key; distinct hits become circuits."""
    rng = np.random.default_rng([seed, count, block])
    down, npairs = _downward_pairs(n), len(_all_pairs(n))
    counts = np.full(size, count)  # array bounds draw one CNOT count per candidate
    lengths = rng.integers(np.maximum(0, counts - npairs), np.minimum(3 * n, counts) + 1)
    cnot_choices = rng.integers(0, len(down), size=int(lengths.sum()))
    # the first count - length pairs of a uniform permutation are a uniform subset
    order = rng.permuted(np.tile(np.arange(npairs), (size, 1)), axis=1)
    chosen = np.arange(npairs) < (counts - lengths)[:, None]
    cz_masks = (chosen << order).sum(axis=1, dtype=np.uint64)
    starts = np.cumsum(lengths) - lengths

    rows = _block_rows(n, lengths, starts, cnot_choices, cz_masks)
    hits = np.flatnonzero(_matches(rows, n, key))
    best, seen = None, set()
    for idx in hits.tolist():
        cand = (tuple(cnot_choices[starts[idx] : starts[idx] + lengths[idx]].tolist()),
                int(cz_masks[idx]))
        if cand not in seen:
            seen.add(cand)
            circ = _rebuild(n, [down[t] for t in cand[0]], cand[1])
            if best is None or depth(circ) < best[0]:
                best = (depth(circ), idx, circ)
    return len(hits), best


def _rebuild(n, cnots, cz_mask) -> CliffordCircuit:
    gates = [CNOT(i, j) for i, j in cnots]
    czs = [(i, j) for p, (i, j) in enumerate(_all_pairs(n)) if (cz_mask >> p) & 1]
    gates += _schedule_czs(gates, czs)
    gates += list(hadamard_layer(n))
    return CliffordCircuit(n, tuple(gates))


def _schedule_czs(prefix, czs) -> list:
    """Order a commuting CZ set for low depth after the given prefix.

    Repeatedly emits the CZ that fits into the earliest layer (ties broken by
    pair order), which lets CZs slot in beside the CNOT layers.
    """
    last: dict = {}
    for g in prefix:
        _place(last, g.qubits)
    remaining = sorted(czs)
    out = []
    while remaining:
        pair = min(remaining, key=lambda p: (max(last.get(q, 0) for q in p), p))
        remaining.remove(pair)
        _place(last, pair)
        out.append(CZ(*pair))
    return out


def synthesize(target, budget: int = 12_000_000, seed: int = 0, jobs: int = 1) -> SynthesisResult:
    """Random search for a circuit with the target's exact statistics and the
    fewest two-qubit gates, then the least depth.

    The budget is split evenly over the two-qubit gate counts of the reduced
    form, 0 to 3n CNOTs plus the CZ pairs, scanned in ascending order up to
    the first count with an accepted candidate.  Blocks
    are seeded by (seed, count, block index) and merged in order, so ties go
    to the earliest and the outcome is the same for any worker count.
    """
    n = target.n
    encoded = encode_counts(target.counts)
    ncounts = 3 * n + len(_all_pairs(n)) + 1
    calls, ends = [], set()  # ends: the index of each count's last block
    for c in range(ncounts):
        trials = budget // ncounts + (c < budget % ncounts)
        calls += [
            (n, seed, c, b, min(SYNTH_BLOCK, trials - start), encoded)
            for b, start in enumerate(range(0, trials, SYNTH_BLOCK))
        ]
        ends.add(len(calls) - 1)

    best, hits, used = None, 0, 0
    for i, (block_hits, block_best) in enumerate(ordered_calls(_synth_block, calls, jobs)):
        hits += block_hits
        used += calls[i][4]
        if block_best is not None and (best is None or block_best[0] < best[0]):
            best = block_best
        if hits and i in ends:
            break

    if best is None:
        profile = target.counts[0]
        return SynthesisResult(None, used, 0, f"no candidate matched within {used} trials "
                                              f"(target key degree profile {profile})")
    return SynthesisResult(best[2], used, hits)
