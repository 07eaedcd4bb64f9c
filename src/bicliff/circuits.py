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
from .gf2 import CNOT, CZ, Gate, H, SWAP, SymplecticMatrix, apply_gate_rows
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


def _layers(c: CliffordCircuit) -> list:
    """Greedy earliest-possible layering; gates sharing a qubit never share a layer."""
    last = {}
    layers: list[list[Gate]] = []
    for g in c.gates:
        layer = max((last.get(q, 0) for q in g.qubits), default=0) + 1
        for q in g.qubits:
            last[q] = layer
        while len(layers) < layer:
            layers.append([])
        layers[layer - 1].append(g)
    return layers


def depth(c: CliffordCircuit) -> int:
    return len(_layers(c))


def two_qubit_count(c: CliffordCircuit) -> int:
    return sum(1 for g in c.gates if len(g.qubits) == 2)


def ascii_diagram(c: CliffordCircuit) -> str:
    """Plain-text circuit diagram, one wire per qubit, one column per layer."""
    layers = _layers(c)
    width = 5
    grid = [["-" * width for _ in layers] for _ in range(c.n)]
    for col, layer in enumerate(layers):
        for g in layer:
            if len(g.qubits) == 1:
                q = g.qubits[0] - 1
                grid[q][col] = f"-[{g.kind}]-".center(width, "-")
            else:
                a, b = (q - 1 for q in sorted(g.qubits))
                if g.kind == "CNOT":
                    ctrl, tgt = g.qubits[0] - 1, g.qubits[1] - 1
                    grid[ctrl][col] = "--o--"
                    grid[tgt][col] = "--x--"
                elif g.kind == "CZ":
                    grid[a][col] = "--o--"
                    grid[b][col] = "--o--"
                else:  # SWAP
                    grid[a][col] = "--%--"
                    grid[b][col] = "--%--"
                for q in range(a + 1, b):
                    if grid[q][col] == "-" * width:
                        grid[q][col] = "--|--"
    lines = []
    for q in range(c.n):
        lines.append(f"q{q + 1}: " + "".join(grid[q]))
    return "\n".join(lines)


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


def _block_rows(n, lengths, starts, cnot_choices, cz_masks, swaps) -> np.ndarray:
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
    idx = np.flatnonzero(swaps)  # exchange qubit 1 with qubit sw+1 after the Hadamards
    sw = swaps[idx]
    rows[idx, 0], rows[idx, sw] = rows[idx, sw], rows[idx, 0]
    rows[idx, n], rows[idx, n + sw] = rows[idx, n + sw], rows[idx, n]
    return rows


def _matches(rows, n: int, key) -> np.ndarray:
    """Which row sets of a block have the encoded target key, shape (size,)."""
    # 2n <= 16 bits for the n <= 8 that werner_keys supports
    return (werner_keys(rows.astype(np.uint16), n) == key).all(axis=-1)


def _synth_block(n, seed, block, size, key, allow_swap):
    """Scan one block of random candidates; return (hits, best) for the block.

    key is the target's `encode_counts` row.
    best is (two_qubit_count, depth, index_in_block, payload) for the block's
    lexicographically best accepted candidate, or None.  All candidates are
    compiled and tested as arrays; only accepted ones become circuits.
    """
    rng = np.random.default_rng([seed, block])
    down = _downward_pairs(n)
    lengths = rng.integers(0, 3 * n + 1, size=size)
    cnot_choices = rng.integers(0, len(down), size=int(lengths.sum()))
    cz_masks = rng.integers(0, 1 << len(_all_pairs(n)), size=size, dtype=np.uint64)
    swaps = rng.integers(0, n, size=size) if allow_swap else np.zeros(size, np.int64)
    starts = np.cumsum(lengths) - lengths

    rows = _block_rows(n, lengths, starts, cnot_choices, cz_masks, swaps)
    hits = np.flatnonzero(_matches(rows, n, key))
    best = None
    if len(hits):
        # only hits with the fewest two-qubit gates (CNOTs, CZs, SWAP) can be best
        gates = lengths[hits] + np.bitwise_count(cz_masks[hits]) + (swaps[hits] != 0)
        for idx in hits[gates == gates.min()].tolist():
            chosen = cnot_choices[starts[idx] : starts[idx] + lengths[idx]]
            circ = _rebuild(n, [down[t] for t in chosen], int(cz_masks[idx]), int(swaps[idx]))
            cand = (two_qubit_count(circ), depth(circ), idx, circ)
            if best is None or cand[:3] < best[:3]:
                best = cand
    return len(hits), best


def _rebuild(n, cnots, cz_mask, sw) -> CliffordCircuit:
    gates = [CNOT(i, j) for i, j in cnots]
    czs = [(i, j) for p, (i, j) in enumerate(_all_pairs(n)) if (cz_mask >> p) & 1]
    gates += _schedule_czs(gates, czs)
    gates += list(hadamard_layer(n))
    if sw:
        gates.append(SWAP(1, sw + 1))
    return CliffordCircuit(n, tuple(gates))


def _schedule_czs(prefix, czs) -> list:
    """Order a commuting CZ set for low depth after the given prefix.

    Repeatedly emits the CZ that fits into the earliest layer (ties broken by
    pair order), which lets CZs slot in beside the CNOT layers.
    """
    last: dict = {}
    for g in prefix:
        layer = max((last.get(q, 0) for q in g.qubits), default=0) + 1
        for q in g.qubits:
            last[q] = layer
    remaining = sorted(czs)
    out = []
    while remaining:
        feas = [(max(last.get(i, 0), last.get(j, 0)) + 1, (i, j)) for i, j in remaining]
        layer, (i, j) = min(feas)
        remaining.remove((i, j))
        last[i] = last[j] = layer
        out.append(CZ(i, j))
    return out


def synthesize(
    target,
    budget: int = 10_000_000,
    seed: int = 0,
    jobs: int = 1,
    allow_swap: bool = False,
    max_hits: int | None = None,
) -> SynthesisResult:
    """Random search for a low-depth circuit with the target's exact statistics.

    Scans up to `budget` random candidates of the reduced form and returns
    the accepted one minimising (two-qubit gate count, depth).  Candidate
    blocks are seeded by (seed, block index) and merged in order, so the
    outcome is identical for any worker count.  `max_hits` stops the scan
    early (at a block boundary) once that many accepted candidates are seen.
    """
    n = target.n
    encoded = encode_counts(target.counts)
    nblocks = (budget + SYNTH_BLOCK - 1) // SYNTH_BLOCK
    sizes = [min(SYNTH_BLOCK, budget - b * SYNTH_BLOCK) for b in range(nblocks)]

    hits = 0
    used = 0
    best = None  # (two_qubit, depth, block, idx, circuit)

    calls = [(n, seed, b, sizes[b], encoded, allow_swap) for b in range(nblocks)]
    for b, (block_hits, block_best) in enumerate(
        ordered_calls(_synth_block, calls, jobs)
    ):
        hits += block_hits
        used += sizes[b]
        if block_best is not None:
            g, d, idx, circ = block_best
            cand = (g, d, b, idx, circ)
            if best is None or cand[:4] < best[:4]:
                best = cand
        if max_hits is not None and hits >= max_hits:
            break

    if best is None:
        return SynthesisResult(
            None, used, 0,
            f"no candidate matched within {used} trials "
            f"(target key degree profile {target.counts[0]})",
        )
    return SynthesisResult(best[4], used, hits, "")
