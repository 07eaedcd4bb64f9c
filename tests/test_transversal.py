from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _scalar_reference as scalar
from bicliff.gf2 import SymplecticMatrix, gate_matrix, is_symplectic, random_symplectic_rows, H, S, CNOT
from bicliff.gf2 import is_symplectic_rows, rref_rows, swap_halves
from bicliff.groups import bfs_closure, coset_key, coset_keys
from bicliff.orders import dn_index
from bicliff.states import BellDiagonalState, DistStats, werner_keys
from bicliff.transversal import (
    SAMPLE_BLOCK,
    Transversal,
    build_transversal,
    enumerate_stats,
    first_bad_record,
    pareto_envelope,
    representative_from_key,
    representative_rows,
)
from bicliff.dejmps import ROTATION_WORDS
from bicliff.werner import build_representative
from _reference import EXAMPLE_PAIR
from _scalar_reference import dejmps_step, enumerate_cases, kn_generators, werner_state


def _reps(t):
    """(key tuple, SymplecticMatrix) of each coset, in key order."""
    return [
        (tuple(key), SymplecticMatrix(t.n, rows))
        for key, rows in zip(t.keys.tolist(), t.rows.tolist())
    ]


def _same(a, b) -> bool:
    return np.array_equal(a.keys, b.keys) and np.array_equal(a.rows, b.rows)


def test_representative_from_key_roundtrip(transversal_for):
    t = transversal_for(3)
    assert t.keys.dtype == t.rows.dtype == np.uint16
    assert t.keys.shape == (315, 2) and t.rows.shape == (315, 6)
    for key, rep in _reps(t):
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
        for key, rep in _reps(t):
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


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("max_samples", [16, 1500])
def test_build_transversal_matches_scalar_sampler(max_samples, jobs):
    assert max_samples % SAMPLE_BLOCK
    # the n=7 keys need 84 bits, more than one packed integer holds
    for n in (2, 3, 4, 7):
        t = build_transversal(n, seed=1, jobs=jobs, max_samples=max_samples)
        keys, samples = scalar.transversal_keys(n, 1, max_samples)
        assert [key for key, _ in _reps(t)] == sorted(keys) and t.samples_used == samples
        assert t.complete == (len(keys) == dn_index(n))
        assert all(rep == scalar.representative_from_key(k, n) for k, rep in _reps(t))


def test_completeness_small(transversal_for):
    for n in (2, 3):
        t = transversal_for(n)
        assert t.complete
        assert len(t) == dn_index(n)


def test_sampling_matches_exhaustive_n2(transversal_for):
    gens = [gate_matrix(g, 2) for g in (H(1), H(2), S(1), S(2), CNOT(1, 2), CNOT(2, 1))]
    exhaustive = {coset_key(m) for m in bfs_closure(gens)}
    assert {key for key, _ in _reps(transversal_for(2))} == exhaustive


def test_reproducible_and_seed_independent_reps():
    a = build_transversal(2, seed=0)
    b = build_transversal(2, seed=0)
    c = build_transversal(2, seed=99)
    assert _same(a, b)
    # canonical completion makes representatives independent of the seed too
    assert _same(a, c)


def test_worker_count_invariance():
    a = build_transversal(3, seed=1, jobs=1)
    b = build_transversal(3, seed=1, jobs=2)
    assert _same(a, b) and a.samples_used == b.samples_used


@pytest.mark.parametrize("n", [0, 9])
def test_build_transversal_rejects_pair_counts_past_uint16(n):
    # 2n row bits must fit the uint16 masks of keys, rows and cache records
    with pytest.raises(ValueError, match=r"transversal pair count must be in \[1, 8\]"):
        build_transversal(n, max_samples=16)


def test_representative_rows_of_uint16_keys_match_uint64():
    # a completion constraint holds 2n + 1 = 17 bits at n = 8, more than a uint16
    keys = coset_keys(random_symplectic_rows(8, np.random.default_rng(8), 50), 8)
    wide = representative_rows(keys, 8)
    narrow = representative_rows(keys.astype(np.uint16), 8)
    assert wide.dtype == np.uint64 and narrow.dtype == np.uint16
    assert narrow.tolist() == wide.tolist()
    assert is_symplectic_rows(wide, 8).all()
    assert (coset_keys(wide, 8) == keys).all()


def test_budget_exhaustion_flagged():
    t = build_transversal(3, seed=0, max_samples=16)
    assert not t.complete
    assert len(t) < dn_index(3)
    state = werner_state(3, 0.8)
    with pytest.raises(ValueError):
        enumerate_stats(t, state)


def test_enumerate_stats_example_state(transversal_for):
    t = transversal_for(2)
    state = BellDiagonalState.from_pairs([EXAMPLE_PAIR, EXAMPLE_PAIR])
    p_suc, f_num, fi_nums = enumerate_stats(t, state)
    assert p_suc.shape == f_num.shape == (15,) and fi_nums.shape == (15, 3)
    f_out = f_num / p_suc
    ident = [key for key, _ in _reps(t)].index(coset_key(SymplecticMatrix.identity(2)))
    assert np.isclose(p_suc[ident], 0.75)
    assert np.isclose(f_out[ident], 0.7)
    # the best achievable fidelity equals the best two-pair step fidelity
    step_best = max(
        dejmps_step(EXAMPLE_PAIR, EXAMPLE_PAIR, rotation=r)[1][0] for r in ROTATION_WORDS
    )
    assert np.isclose(f_out.max(), step_best)


def test_transversal_n4_werner_stats_refine_double_cosets(transversal_for, protocols_for):
    # right cosets refine the double cosets, so the 11475 representatives
    # realise exactly the 13 distinct Werner statistics
    from bicliff.states import counts_key, werner_counts

    t = transversal_for(4)
    tset = {counts_key(werner_counts(rep, 4)) for _, rep in _reps(t)}
    wset = {counts_key(p.counts) for p in protocols_for(4)}
    assert tset == wset


def test_transversal_n4_batched_histograms_match_werner_classes(transversal_for, protocols_for):
    # the batched coset histograms of the whole n=4 transversal give the 13
    # classes of the canonical-triple enumeration, none more or fewer
    from bicliff.states import coset_histograms, counts_key

    histograms = coset_histograms(transversal_for(4).rows, 4).tolist()
    tset = {counts_key(tuple(map(tuple, h))) for h in histograms}
    wset = {counts_key(p.counts) for p in protocols_for(4)}
    assert len(tset) == len(wset) == 13
    assert tset == wset


# Double cosets D_n M K_n, from the coset keys alone.  K_n acts on the right
# cosets by right multiplication, and a key spans the preimage of rows 1..n-1
# with halves swapped, so the key of M k is the reduced basis of
# swap(swap(key) k).  Each map below is that action on the key masks.


def _key_codes(keys, n: int) -> np.ndarray:
    """Each key's rows as one integer, in the transversal's key order."""
    codes = np.zeros(len(keys), dtype=np.int64)
    for row in np.asarray(keys, dtype=np.int64).T:
        codes = codes << (2 * n) | row
    return codes


def _times(k):
    """The key action of any K_n matrix k: the XOR of k's rows at each set bit."""
    n = k.n

    def act(w):
        v = swap_halves(w, n)
        out = np.zeros_like(v)
        for j, row in enumerate(k.rows):
            out ^= np.where(v >> np.uint64(j) & np.uint64(1), np.uint64(row), np.uint64(0))
        return swap_halves(out, n)

    return act


def _small_generators(n: int) -> list:
    """H and S on pair 1, the transposition (1 2) and the n-cycle of pairs, as
    bit operations on key masks (bit i is pair i+1's X, bit n + i its Z)."""
    one, low = np.uint64(1), np.uint64((1 << n) - 1)

    def swap_bits(w, i, j):
        d = (w >> np.uint64(i) ^ w >> np.uint64(j)) & one
        return w ^ (d << np.uint64(i) | d << np.uint64(j))

    def cycle(w):
        halves = [w & low, w >> np.uint64(n)]
        halves = [(h << one | h >> np.uint64(n - 1)) & low for h in halves]
        return halves[0] | halves[1] << np.uint64(n)

    return [
        lambda w: swap_bits(w, 0, n),  # H(1): X and Z of pair 1 trade places
        lambda w: w ^ (w & one) << np.uint64(n),  # S(1), conjugated by the half swap
        lambda w: swap_bits(swap_bits(w, 0, 1), n, n + 1),  # SWAP(1, 2)
        cycle,
    ]


def _double_coset_labels(t, actions) -> np.ndarray:
    """Per coset, the least coset index of its double coset (its orbit under
    the key actions), by min-label propagation with pointer jumping."""
    n, codes = t.n, _key_codes(t.keys, t.n)
    assert (np.diff(codes) > 0).all()
    keys = t.keys.astype(np.uint64)
    perms = []
    for act in actions:
        image = _key_codes(rref_rows(act(keys)), n)
        perm = np.searchsorted(codes, image)
        assert (codes[perm] == image).all()  # every image is a coset key
        perms.append(perm)
    labels = np.arange(len(codes))
    while True:
        new = labels
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


@pytest.mark.parametrize("n", [2, 3])
def test_small_generators_give_the_double_cosets_of_all_of_kn(transversal_for, n):
    t = transversal_for(n)
    small = _double_coset_labels(t, _small_generators(n))
    full = _double_coset_labels(t, [_times(k) for k in kn_generators(n).matrices()])
    assert np.array_equal(small, full)


def test_double_cosets_n2_match_bfs_closure_orbits(transversal_for):
    # brute force: the orbit of every representative under all 72 elements of K_2
    t = transversal_for(2)
    index = {key: i for i, (key, _) in enumerate(_reps(t))}
    group = bfs_closure(kn_generators(2).matrices(), limit=1000)
    assert len(group) == 72
    orbits = [min(index[coset_key(rep @ k)] for k in group) for _, rep in _reps(t)]
    assert _double_coset_labels(t, _small_generators(2)).tolist() == orbits


@pytest.mark.parametrize("n, count", [(2, 2), (3, 5), (4, 13)])
def test_double_cosets_from_keys(transversal_for, protocols_for, n, count):
    # D_n\Sp(2n)/K_n: as many double cosets as distinct Werner protocols,
    # the Werner statistics constant on each, and each reached by a
    # canonical triple's representative
    t = transversal_for(n)
    labels = _double_coset_labels(t, _small_generators(n))
    classes = np.unique(labels)
    assert len(classes) == count == len(protocols_for(n))
    stats = werner_keys(t.rows, n)
    assert (stats == stats[labels]).all()
    assert len(np.unique(stats, axis=0)) == count
    assert np.array_equal(_reached(labels, t.keys, n), classes)


def _reached(labels, keys, n: int) -> np.ndarray:
    """The distinct labels of the cosets of every canonical triple's representative."""
    reps = np.array([build_representative(case).rows for case in enumerate_cases(n)], np.uint64)
    codes, case_codes = _key_codes(keys, n), _key_codes(coset_keys(reps, n), n)
    reached = np.searchsorted(codes, case_codes)
    assert (codes[reached] == case_codes).all()
    return np.unique(labels[reached])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerated_coset_keys_equal_sampled_transversal(transversal_for, n):
    assert np.array_equal(scalar.enumerated_coset_keys(n), transversal_for(n).keys)


def test_enumerated_n5_double_cosets_reached_by_canonical_triples():
    # all 782,595 cosets of n = 5 without sampling: 36 double cosets, every
    # one holding the coset of some canonical triple's representative
    keys = scalar.enumerated_coset_keys(5)
    assert len(keys) == dn_index(5) == 782_595
    assert (np.diff(_key_codes(keys, 5)) > 0).all()
    labels = _double_coset_labels(SimpleNamespace(n=5, keys=keys), _small_generators(5))
    classes = np.unique(labels)
    assert len(classes) == 36
    assert np.array_equal(_reached(labels, keys, 5), classes)


def test_pareto_envelope_basics():
    assert pareto_envelope(np.array([0.5]), np.array([0.9])).tolist() == [True]
    # (p=0.5, F=0.9) is dominated by (p=0.6, F=0.95)
    assert pareto_envelope(np.array([0.5, 0.6]), np.array([0.9, 0.95])).tolist() == [False, True]
    assert pareto_envelope(np.zeros(0), np.zeros(0)).tolist() == []


def test_pareto_envelope_example_state(transversal_for):
    t = transversal_for(2)
    state = BellDiagonalState.from_pairs([EXAMPLE_PAIR, EXAMPLE_PAIR])
    p_suc, f_num, _ = enumerate_stats(t, state)
    f_out = f_num / p_suc
    env = pareto_envelope(p_suc, f_out)
    # brute-force oracle over all 15 cosets
    dominated = [
        any((q >= p and g >= f) and (q > p or g > f) for q, g in zip(p_suc, f_out))
        for p, f in zip(p_suc, f_out)
    ]
    assert env.tolist() == [not d for d in dominated]
    assert f_out[env].max() == f_out.max()
    assert p_suc[env].max() == p_suc.max()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(points=st.lists(
    st.tuples(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1),
        st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5]) | st.floats(0, 1),
    ),
    max_size=40,
))
def test_pareto_envelope_mask_equals_scalar(points):
    # drawn ties in p and in f_num, and rows with p = 0 (and F_out 0)
    stats = [DistStats(p, f, (0.0, 0.0, 0.0)) for p, f in points]
    p_suc = np.array([s.p_suc for s in stats])
    f_num = np.array([s.f_num for s in stats])
    with np.errstate(over="ignore"):  # a subnormal p_suc overflows F_out to inf
        f_out = np.divide(f_num, p_suc, out=np.zeros_like(p_suc), where=p_suc > 0)
    kept = {id(s) for s in scalar.pareto_envelope(stats)}
    assert pareto_envelope(p_suc, f_out).tolist() == [id(s) in kept for s in stats]


class _Sample(Transversal):
    """Some cosets of a transversal, which `enumerate_stats` takes as complete."""

    complete = True


_SAMPLED: dict = {}


def _sampled_transversal(n, transversal_for):
    """The whole transversal for n <= 3; 2,000 of its cosets for n = 4, 5."""
    if n not in _SAMPLED:
        if n <= 4:
            t = transversal_for(n)
            step = max(1, len(t) // 2000)
            keys, rows = t.keys[::step], t.rows[::step]
        else:
            keys = np.array(_n5_keys(), dtype=np.uint64)
            rows = representative_rows(keys, n)
        _SAMPLED[n] = _Sample(n, keys, rows, 0)
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


def _bits(p_suc, f_num, fi_nums):
    return tuple(float(x).hex() for x in (p_suc, f_num, *fi_nums))


@pytest.mark.parametrize("n", range(1, 6))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_enumerate_stats_bit_equal_to_numeric_stats(transversal_for, n, data):
    t = _sampled_transversal(n, transversal_for)
    state = data.draw(_states(n))
    p_suc, f_num, fi_nums = enumerate_stats(t, state)
    want = scalar.enumerate_stats(t, state)  # numeric_stats of each representative
    assert [_bits(*row) for row in zip(p_suc.tolist(), f_num.tolist(), fi_nums.tolist())] == [
        _bits(s.p_suc, s.f_num, s.fi_nums) for _, s in want
    ]


def _stats_or_error(t, state):
    try:
        return b"".join(column.tobytes() for column in enumerate_stats(t, state))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_uint16_and_uint64_transversals_agree(transversal_for, n, data):
    t = transversal_for(n)
    assert t.keys.dtype == t.rows.dtype == np.uint16
    keys, rows = t.keys.copy(), t.rows.copy()
    if data.draw(st.booleans()):  # one flipped row bit: a record goes bad
        record = data.draw(st.integers(0, len(t) - 1))
        rows[record, data.draw(st.integers(0, 2 * n - 1))] ^= 1 << data.draw(st.integers(0, 2 * n - 1))
    narrow = Transversal(n, keys, rows, t.samples_used)
    wide = Transversal(n, keys.astype(np.uint64), rows.astype(np.uint64), t.samples_used)
    assert first_bad_record(narrow.keys, narrow.rows, n) == first_bad_record(wide.keys, wide.rows, n)
    state = data.draw(_states(n))
    assert _stats_or_error(narrow, state) == _stats_or_error(wide, state)
