import numpy as np
import pytest

from bicliff.circuits import (
    CliffordCircuit,
    _all_pairs,
    _block_rows,
    _downward_pairs,
    _matches,
    _synth_block,
    ascii_diagram,
    circuit_to_symplectic,
    depth,
    hadamard_layer,
    published_circuits,
    synthesize,
    two_qubit_count,
)
from bicliff.gf2 import CNOT, CZ, H, S, SWAP, X, SymplecticMatrix, apply_gate_rows, is_symplectic
from bicliff.states import counts_key, encode_counts, werner_counts, werner_keys, werner_stats
from _reference import CIRCUIT_SIZES
import _scalar_reference


def test_empty_circuit_is_identity():
    c = CliffordCircuit(3, ())
    assert circuit_to_symplectic(c) == SymplecticMatrix.identity(3)


def test_involution():
    c = CliffordCircuit(2, (CNOT(1, 2), CNOT(1, 2)))
    assert circuit_to_symplectic(c) == SymplecticMatrix.identity(2)


def test_out_of_range_gate_rejected():
    with pytest.raises(ValueError):
        CliffordCircuit(2, (H(3),))


def test_composition_homomorphism():
    rng = np.random.default_rng(0)
    pool = [H(1), H(2), S(1), S(2), CNOT(1, 2), CNOT(2, 1), CZ(1, 2), SWAP(1, 2), X(2)]
    for _ in range(25):
        ga = [pool[i] for i in rng.integers(0, len(pool), size=4)]
        gb = [pool[i] for i in rng.integers(0, len(pool), size=3)]
        a = CliffordCircuit(2, tuple(ga))
        b = CliffordCircuit(2, tuple(gb))
        combined = circuit_to_symplectic(a + b)
        assert combined == circuit_to_symplectic(b) @ circuit_to_symplectic(a)


def test_depth_and_counts():
    c = CliffordCircuit(2, (H(1),))
    assert depth(c) == 1 and two_qubit_count(c) == 0
    c = CliffordCircuit(3, (CNOT(1, 2), CNOT(1, 3), H(2)))
    assert depth(c) == 2  # second CNOT waits for qubit 1; H slots beside it
    assert two_qubit_count(c) == 2
    c = CliffordCircuit(4, (CNOT(1, 2), CZ(3, 4)))
    assert depth(c) == 1


def test_published_circuit_sizes():
    for n, circ in published_circuits().items():
        gates, d = CIRCUIT_SIZES[n]
        assert two_qubit_count(circ) == gates
        assert depth(circ) == d
        assert is_symplectic(circuit_to_symplectic(circ))


def test_published_circuits_attain_best_stats(best_for):
    for n, circ in published_circuits().items():
        m = circuit_to_symplectic(circ)
        assert counts_key(werner_counts(m, n)) == counts_key(best_for(n).protocol.counts)


def test_triangular_tail_invariance(best_for):
    # composing with Pauli/phase/downward-CNOT gates (matrix product on the
    # left, i.e. temporally after the circuit) preserves the sorted statistics
    rng = np.random.default_rng(8)
    n = 4
    circ = published_circuits()[n]
    base_stats = werner_stats(circuit_to_symplectic(circ), n)
    pool = [X(1), X(3), S(1), S(2), CNOT(2, 1), CNOT(3, 1), CNOT(4, 2), CNOT(4, 3)]
    for _ in range(10):
        tail = [pool[i] for i in rng.integers(0, len(pool), size=3)]
        full = CliffordCircuit(n, circ.gates + tuple(tail))
        assert werner_stats(circuit_to_symplectic(full), n) == base_stats


def test_ascii_diagram_mentions_all_wires():
    circ = published_circuits()[4]
    art = ascii_diagram(circ)
    lines = art.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("q1:")
    assert "[H]" in art and "o" in art and "x" in art


def _two_qubit_gates_read_off(art: str) -> list:
    """Every two-qubit gate a diagram shows, read column by column: a gate is
    an unbroken run of marker cells whose two ends are its qubits."""
    wires = [line.split(": ", 1)[1] for line in art.splitlines()]
    gates = []
    for k in range(0, len(wires[0]), 5):
        col = [w[k : k + 5] for w in wires]
        q = 0
        while q < len(col):
            if col[q] not in ("--o--", "--x--", "--%--"):
                q += 1
                continue
            end = q + 1
            while col[end] == "--|--":
                end += 1
            ends = {col[q], col[end]}
            if ends == {"--o--", "--x--"}:
                control, target = (q, end) if col[q] == "--o--" else (end, q)
                gates.append(("CNOT", (control + 1, target + 1)))
            else:
                assert len(ends) == 1, (col, q)
                gates.append(("CZ" if ends == {"--o--"} else "SWAP", (q + 1, end + 1)))
            q = end + 1
    return sorted(gates)


@pytest.mark.parametrize(
    "circ",
    [*published_circuits().values(), CliffordCircuit(4, (CNOT(1, 3), H(2), SWAP(2, 4), CZ(3, 4)))],
    ids=["n4", "n5", "n6", "n7", "n8", "swap"],
)
def test_ascii_diagram_shows_every_two_qubit_gate_apart(circ):
    # gates of one layer whose qubit spans overlap or touch must not merge
    want = sorted(
        (g.kind, g.qubits if g.kind == "CNOT" else tuple(sorted(g.qubits)))
        for g in circ.gates
        if len(g.qubits) == 2
    )
    assert _two_qubit_gates_read_off(ascii_diagram(circ)) == want


def _fewest_two_qubit_gates(n: int, key) -> int:
    """The fewest two-qubit gates of a reduced-form circuit whose Werner key
    is `key`, by exact search.

    The downward CNOTs generate the lower unitriangular group; a BFS gives
    each element its fewest CNOTs.  The CZs, one per edge of a graph, then
    set Z_j ^= the XOR of the X rows over the neighbours of j, read from a
    per-element subset-XOR table.  (element, graph) pairs are scanned by
    CNOTs plus edges, ascending, until a cost has a match.
    """
    start = tuple(1 << b for b in range(2 * n))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for rows in frontier:
            for i, j in _downward_pairs(n):
                new = list(rows)
                apply_gate_rows(new, CNOT(i, j), n)
                if tuple(new) not in dist:
                    dist[tuple(new)] = dist[rows] + 1
                    nxt.append(tuple(new))
        frontier = nxt
    assert len(dist) == 2 ** (n * (n - 1) // 2)
    elements = np.array(list(dist), dtype=np.int64)
    cnots = np.array(list(dist.values()))
    # subset-XOR table of each element's X rows: xor[e, s] over the qubits in s
    xor = np.zeros((len(elements), 1 << n), dtype=np.int64)
    for q in range(n):
        xor[:, 1 << q : 2 << q] = xor[:, : 1 << q] ^ elements[:, q, None]
    pairs = _all_pairs(n)
    graphs = np.arange(1 << len(pairs))
    adjacency = np.zeros((len(graphs), n), dtype=np.int64)
    for p, (i, j) in enumerate(pairs):
        edge = (graphs >> p) & 1
        adjacency[:, i - 1] |= edge << (j - 1)
        adjacency[:, j - 1] |= edge << (i - 1)
    edges = np.bitwise_count(graphs)
    h = np.arange(1, n)
    for cost in range(cnots.max() + len(pairs) + 1):
        for c in range(cost + 1):
            e = np.flatnonzero(cnots == c)[:, None]
            g = np.flatnonzero(edges == cost - c)[None, :]
            rows = np.broadcast_to(elements[e], (e.size, g.size, 2 * n)).copy()
            rows[..., n:] ^= xor[e[..., None], adjacency[g]]
            rows[..., np.r_[h, n + h]] = rows[..., np.r_[n + h, h]]
            if (werner_keys(rows.astype(np.uint16), n) == key).all(axis=-1).any():
                return cost
    raise AssertionError("no reduced-form circuit has the key")


@pytest.mark.parametrize("n, fewest", [(4, 4), (5, 7)])
def test_published_circuits_have_the_fewest_two_qubit_gates(n, fewest, best_for):
    # exact search certifies the minimum over the reduced family
    key = encode_counts(best_for(n).protocol.counts)
    assert _fewest_two_qubit_gates(n, key) == fewest
    assert two_qubit_count(published_circuits()[n]) == fewest


# Circuits for the best n = 7 and n = 8 protocols with fewer two-qubit gates
# than the published ones, found by random search in the reduced family drawn
# in ascending gate count: (gates before the Hadamards, two-qubit gates, depth)
FEWER_GATE_CIRCUITS = {
    7: ([CNOT(2, 1), CNOT(6, 1), CNOT(7, 6), CZ(3, 5), CZ(2, 3), CZ(2, 4), CZ(1, 6),
         CZ(3, 7), CZ(4, 6), CZ(5, 6)], 10, 7),
    8: ([CNOT(2, 1), CNOT(6, 2), CNOT(8, 1), CNOT(8, 3), CZ(4, 7), CZ(5, 7), CZ(1, 6),
         CZ(2, 4), CZ(1, 8), CZ(2, 3), CZ(3, 5), CZ(7, 8)], 12, 6),
}


@pytest.mark.parametrize("n", sorted(FEWER_GATE_CIRCUITS))
def test_fewer_gates_than_published(n, best_for):
    gates, two_qubit, d = FEWER_GATE_CIRCUITS[n]
    circ = CliffordCircuit(n, tuple(gates) + hadamard_layer(n))
    assert werner_stats(circuit_to_symplectic(circ), n) == best_for(n).protocol.stats
    assert (two_qubit_count(circ), depth(circ)) == (two_qubit, d)
    assert two_qubit < two_qubit_count(published_circuits()[n])


def test_json_roundtrip():
    circ = published_circuits()[5]
    blob = circ.to_json_obj()
    again = CliffordCircuit.from_json_obj(5, blob)
    assert again == circ


def test_synthesize_n2_finds_single_cnot(best_for):
    res = synthesize(best_for(2).protocol, budget=20_000, seed=1)
    assert res.circuit is not None and res.hits > 0
    assert two_qubit_count(res.circuit) == 1
    m = circuit_to_symplectic(res.circuit)
    assert counts_key(werner_counts(m, 2)) == counts_key(best_for(2).protocol.counts)


def test_synthesize_jobs_invariance(best_for):
    a = synthesize(best_for(2).protocol, budget=8192, seed=3, jobs=1)
    b = synthesize(best_for(2).protocol, budget=8192, seed=3, jobs=2)
    assert a.circuit == b.circuit and a.hits == b.hits and a.trials_used == b.trials_used


def test_synthesize_early_stop_jobs_invariance(best_for):
    # eight gate counts (0 to 6 CNOTs plus one CZ pair) of two blocks each: the
    # search stops after count 1, the first with a hit, while later blocks are queued
    runs = [synthesize(best_for(2).protocol, budget=16 * 4096, seed=4, jobs=jobs) for jobs in (1, 2)]
    assert runs[0].trials_used == runs[1].trials_used == 4 * 4096
    assert two_qubit_count(runs[0].circuit) == 1 and runs[0].hits > 0
    assert runs[0].circuit == runs[1].circuit and runs[0].hits == runs[1].hits


def test_synthesize_budget_exhaustion_reports():
    # impossible target: statistics of a protocol on 3 pairs, searched on a
    # deliberately tiny budget that cannot hit it
    class FakeTarget:
        n = 3
        counts = ((1, 0, 0, 3), (0, 0, 0, 4), (0, 0, 0, 4), (0, 0, 0, 4))

    res = synthesize(FakeTarget(), budget=64, seed=0)
    assert res.circuit is None
    assert res.trials_used == 64
    assert "no candidate" in res.message


# per n, a two-qubit gate count at which blocks 0..2 of seed 7 hit the best
# protocol
ORACLE_COUNTS = {4: 4, 5: 8, 6: 9, 7: 13, 8: 18}


def test_batched_block_matches_scalar_reference(best_for):
    # n = 8 histograms hold entries up to 128 in 9 bins, past one int64 packing
    for n, count in ORACLE_COUNTS.items():
        key = counts_key(best_for(n).protocol.counts)
        encoded = encode_counts([key[0], *key[1]])
        total = 0
        for block in (0, 1, 2):
            args = (n, 7, count, block, 2048, key)
            hits, best = _synth_block(n, 7, count, block, 2048, encoded)
            assert (hits, best) == _scalar_reference.synth_block(*args), args
            total += hits
        assert total > 0, n


@pytest.mark.parametrize("n", range(2, 9))
def test_block_key_match_matches_histogram_reference(n, best_for):
    # random reduced-form blocks; targets are the best protocol and members of
    # the block itself, so that every comparison has hits to find
    rng = np.random.default_rng(50 + n)
    size = 512
    lengths = rng.integers(0, 3 * n + 1, size=size)
    cnots = rng.integers(0, len(_downward_pairs(n)), size=int(lengths.sum()))
    cz_masks = rng.integers(0, 1 << len(_all_pairs(n)), size=size, dtype=np.uint64)
    starts = np.cumsum(lengths) - lengths
    rows = _block_rows(n, lengths, starts, cnots, cz_masks)
    hist = _scalar_reference.block_histograms(rows, n)
    targets = [counts_key(best_for(n).protocol.counts)]
    targets += [counts_key([tuple(h) for h in hist[i].tolist()])
                for i in rng.choice(size, size=6, replace=False)]
    for key in targets:
        want = _scalar_reference.key_matches(hist, key)
        assert np.array_equal(_matches(rows, n, encode_counts([key[0], *key[1]])), want), key
