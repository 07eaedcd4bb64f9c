import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _scalar_reference as scalar
from bicliff.gf2 import SymplecticMatrix, gate_matrix, is_symplectic, random_symplectic_rows, H, S, CNOT
from bicliff.groups import bfs_closure, coset_key, dn_index
from bicliff.states import BellDiagonalState, DistStats, numeric_stats
from bicliff.transversal import (
    SAMPLE_BLOCK,
    Transversal,
    build_transversal,
    enumerate_stats,
    pareto_envelope,
    representative_from_key,
    representative_rows,
)
from bicliff.dejmps import dejmps_step, ROTATION_WORDS
from _reference import EXAMPLE_PAIR


def test_representative_from_key_roundtrip(transversal_for):
    t = transversal_for(3)
    for key, rep in t.reps.items():
        assert is_symplectic(rep)
        assert coset_key(rep) == key


def _n5_keys(count=2000):
    """Coset keys of `count` random n=5 matrices, by the scalar coset_key."""
    rows = random_symplectic_rows(5, np.random.default_rng(12), count)
    return sorted({coset_key(SymplecticMatrix(5, r)) for r in rows.tolist()})


def test_representatives_match_scalar_completion(transversal_for):
    for n in (1, 2, 3, 4):
        t = transversal_for(n)
        assert len(t) == dn_index(n)
        for key, rep in t.reps.items():
            assert rep == scalar.representative_from_key(key, n)
    keys = _n5_keys()
    rows = representative_rows(np.array(keys, dtype=np.uint64), 5)
    assert [tuple(r) for r in rows.tolist()] == [
        scalar.representative_from_key(k, 5).rows for k in keys
    ]
    for k in keys[:20]:
        assert representative_from_key(k, 5) == scalar.representative_from_key(k, 5)
    with pytest.raises(ValueError, match="n-1"):
        representative_from_key(keys[0][:3], 5)


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("max_samples", [16, 1500])
def test_build_transversal_matches_scalar_sampler(max_samples, jobs):
    assert max_samples % SAMPLE_BLOCK
    for n in (2, 3, 4):
        t = build_transversal(n, seed=1, jobs=jobs, max_samples=max_samples)
        keys, samples = scalar.transversal_keys(n, 1, max_samples)
        assert set(t.reps) == keys and t.samples_used == samples
        assert t.complete == (len(keys) == dn_index(n))
        assert all(rep == scalar.representative_from_key(k, n) for k, rep in t.reps.items())


def test_completeness_small(transversal_for):
    for n in (2, 3):
        t = transversal_for(n)
        assert t.complete
        assert len(t) == dn_index(n)


def test_sampling_matches_exhaustive_n2(transversal_for):
    gens = [gate_matrix(g, 2) for g in (H(1), H(2), S(1), S(2), CNOT(1, 2), CNOT(2, 1))]
    exhaustive = {coset_key(m) for m in bfs_closure(gens)}
    assert set(transversal_for(2).reps) == exhaustive


def test_reproducible_and_seed_independent_reps():
    a = build_transversal(2, seed=0)
    b = build_transversal(2, seed=0)
    c = build_transversal(2, seed=99)
    assert a.reps == b.reps
    # canonical completion makes representatives independent of the seed too
    assert a.reps == c.reps


def test_worker_count_invariance():
    a = build_transversal(3, seed=1, jobs=1)
    b = build_transversal(3, seed=1, jobs=3)
    assert a.reps == b.reps and a.samples_used == b.samples_used


def test_budget_exhaustion_flagged():
    t = build_transversal(3, seed=0, max_samples=16)
    assert not t.complete
    assert len(t) < dn_index(3)
    state = BellDiagonalState.werner(3, 0.8)
    with pytest.raises(ValueError):
        enumerate_stats(t, state)


def test_enumerate_stats_example_state(transversal_for):
    t = transversal_for(2)
    state = BellDiagonalState.from_pairs([EXAMPLE_PAIR, EXAMPLE_PAIR])
    entries = enumerate_stats(t, state)
    assert len(entries) == 15
    stats = dict(entries)
    ident_key = coset_key(next(iter(t.reps.values())).identity(2))
    assert np.isclose(stats[ident_key].p_suc, 0.75)
    assert np.isclose(stats[ident_key].f_out, 0.7)
    # the best achievable fidelity equals the best two-pair step fidelity
    best = max(s.f_out for s in stats.values())
    step_best = max(
        dejmps_step(EXAMPLE_PAIR, EXAMPLE_PAIR, rotation=r)[1][0] for r in ROTATION_WORDS
    )
    assert np.isclose(best, step_best)


def test_transversal_n4_werner_stats_refine_double_cosets(transversal_for, protocols_for):
    # right cosets refine the double cosets, so the 11475 representatives
    # realise exactly the 13 distinct Werner statistics
    from bicliff.states import counts_key, werner_counts

    t = transversal_for(4)
    tset = {counts_key(werner_counts(rep, 4)) for rep in t.reps.values()}
    wset = {counts_key(p.counts) for p in protocols_for(4)}
    assert tset == wset


def test_pareto_envelope_basics():
    single = DistStats.from_coset_sums(0.45, 0.03, 0.01, 0.01)
    assert pareto_envelope([single]) == [single]

    a = DistStats.from_coset_sums(0.45, 0.03, 0.01, 0.01)  # p=0.5, F=0.9
    b = DistStats.from_coset_sums(0.57, 0.01, 0.01, 0.01)  # p=0.6, F=0.95
    assert pareto_envelope([a, b]) == [b]


def test_pareto_envelope_example_state(transversal_for):
    t = transversal_for(2)
    state = BellDiagonalState.from_pairs([EXAMPLE_PAIR, EXAMPLE_PAIR])
    stats = [s for _, s in enumerate_stats(t, state)]
    env = pareto_envelope(stats)
    # brute-force oracle over all 15 cosets
    def dominated(x):
        return any(
            (y.p_suc >= x.p_suc and y.f_out >= x.f_out)
            and (y.p_suc > x.p_suc or y.f_out > x.f_out)
            for y in stats
        )

    expected = [s for s in stats if not dominated(s)]
    assert sorted(env, key=lambda s: -s.p_suc) == sorted(expected, key=lambda s: -s.p_suc)
    best_f = max(s.f_out for s in stats)
    best_p = max(s.p_suc for s in stats)
    assert any(np.isclose(s.f_out, best_f) for s in env)
    assert any(np.isclose(s.p_suc, best_p) for s in env)


_SAMPLED: dict = {}


def _sampled_transversal(n, transversal_for):
    """The whole transversal for n <= 3; 2,000 of its cosets for n = 4, 5."""
    if n not in _SAMPLED:
        if n <= 4:
            reps = transversal_for(n).reps
            keys = sorted(reps)[:: max(1, len(reps) // 2000)]
            reps = {k: reps[k] for k in keys}
        else:
            reps = {k: representative_from_key(k, n) for k in _n5_keys()}
        _SAMPLED[n] = Transversal(n, reps, True, 0)
    return _SAMPLED[n]


@st.composite
def _states(draw, n):
    """Product states with edge-case pairs, or seeded dense or sparse states."""
    if draw(st.booleans()):
        pairs = draw(st.lists(
            st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(lambda p: sum(p) > 0),
            min_size=n, max_size=n,
        ))
        return BellDiagonalState.from_pairs([np.array(p) / sum(p) for p in pairs])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.random(4**n) ** draw(st.sampled_from([1, 8]))
    probs[rng.random(4**n) < draw(st.sampled_from([0.0, 0.9]))] = 0.0
    probs[0] += probs.sum() == 0
    return BellDiagonalState(n, probs / probs.sum())


def _bits(stats):
    return tuple(float(x).hex() for x in (stats.p_suc, stats.f_num, *stats.fi_nums))


@pytest.mark.parametrize("n", range(1, 6))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_enumerate_stats_bit_equal_to_numeric_stats(transversal_for, n, data):
    t = _sampled_transversal(n, transversal_for)
    state = data.draw(_states(n))
    got = enumerate_stats(t, state)
    want = [(key, numeric_stats(rep, state)) for key, rep in sorted(t.reps.items())]
    assert [key for key, _ in got] == [key for key, _ in want]
    assert [_bits(s) for _, s in got] == [_bits(s) for _, s in want]
