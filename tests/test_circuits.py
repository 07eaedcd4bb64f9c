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
    published_circuits,
    synthesize,
    two_qubit_count,
)
from bicliff.gf2 import CNOT, CZ, H, S, SWAP, X, SymplecticMatrix, is_symplectic
from bicliff.states import counts_key, encode_counts, werner_counts, werner_stats
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


def test_json_roundtrip():
    circ = published_circuits()[5]
    blob = circ.to_json_obj()
    again = CliffordCircuit.from_json_obj(5, blob)
    assert again == circ


def test_synthesize_n2_finds_single_cnot(best_for):
    res = synthesize(best_for(2).protocol, budget=20_000, seed=1, max_hits=100)
    assert res.circuit is not None
    assert two_qubit_count(res.circuit) == 1
    m = circuit_to_symplectic(res.circuit)
    assert counts_key(werner_counts(m, 2)) == counts_key(best_for(2).protocol.counts)


def test_synthesize_jobs_invariance(best_for):
    a = synthesize(best_for(2).protocol, budget=8192, seed=3, jobs=1)
    b = synthesize(best_for(2).protocol, budget=8192, seed=3, jobs=2)
    assert a.circuit == b.circuit and a.hits == b.hits and a.trials_used == b.trials_used


def test_synthesize_early_stop_jobs_invariance(best_for):
    # max_hits stops after the first block while later blocks are queued
    runs = [
        synthesize(best_for(2).protocol, budget=16 * 4096, seed=4, jobs=jobs, max_hits=1)
        for jobs in (1, 2)
    ]
    assert runs[0].trials_used == runs[1].trials_used == 4096
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


def test_synthesize_swap_variant_runs(best_for):
    res = synthesize(best_for(2).protocol, budget=4096, seed=5, allow_swap=True, max_hits=20)
    assert res.circuit is not None


def test_batched_block_matches_scalar_reference(best_for):
    # n = 8 histograms hold entries up to 128 in 9 bins, past one int64 packing
    for n in range(4, 9):
        key = counts_key(best_for(n).protocol.counts)
        for allow_swap in (False, True):
            total = 0
            for block in (0, 1, 2):
                args = (n, 7, block, 2048, key, allow_swap)
                hits, best = _synth_block(n, 7, block, 2048, encode_counts([key[0], *key[1]]), allow_swap)
                assert (hits, best) == _scalar_reference.synth_block(*args), args
                total += hits
            assert total > 0, (n, allow_swap)


@pytest.mark.parametrize("n", range(2, 9))
def test_block_key_match_matches_histogram_reference(n, best_for):
    # random reduced-form blocks; targets are the best protocol and members of
    # the block itself, so that every comparison has hits to find
    rng = np.random.default_rng(50 + n)
    size = 512
    for allow_swap in (False, True):
        lengths = rng.integers(0, 3 * n + 1, size=size)
        cnots = rng.integers(0, len(_downward_pairs(n)), size=int(lengths.sum()))
        cz_masks = rng.integers(0, 1 << len(_all_pairs(n)), size=size, dtype=np.uint64)
        swaps = rng.integers(0, n, size=size) if allow_swap else np.zeros(size, np.int64)
        starts = np.cumsum(lengths) - lengths
        rows = _block_rows(n, lengths, starts, cnots, cz_masks, swaps)
        hist = _scalar_reference.block_histograms(rows, n)
        targets = [counts_key(best_for(n).protocol.counts)]
        targets += [counts_key([tuple(h) for h in hist[i].tolist()])
                    for i in rng.choice(size, size=6, replace=False)]
        for key in targets:
            want = _scalar_reference.key_matches(hist, key)
            assert np.array_equal(_matches(rows, n, encode_counts([key[0], *key[1]])), want), key
