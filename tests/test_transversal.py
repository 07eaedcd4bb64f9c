import functools
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
from bicliff.states import BellDiagonalState, DistStats, preimage_cosets, preimage_index, werner_keys
from bicliff import transversal
from bicliff.transversal import (
    SAMPLE_BLOCK,
    _coset_stats,
    build_transversal,
    enumerate_stats,
    pareto_envelope,
    representative_from_key,
    representative_rows,
)
from bicliff.dejmps import ROTATION_WORDS
from bicliff.werner import build_representative
from _reference import EXAMPLE_PAIR
from _scalar_reference import dejmps_step, enumerate_cases, kn_generators


def _reps(t):
    """(key tuple, SymplecticMatrix) of each coset, in key order: the canonical
    representative completed from the key."""
    return [
        (tuple(key), SymplecticMatrix(t.n, rows))
        for key, rows in zip(t.keys.tolist(), representative_rows(t.keys, t.n).tolist())
    ]


def _shifts(rows, n: int) -> list:
    """(t1, t2) of each representative: rows n and 0, halves swapped."""
    return swap_halves(np.asarray(rows)[:, [n, 0]], n).tolist()


def _scalar_shifts(keys, n: int) -> list:
    """(t1, t2) of each key, read off the scalar completion."""
    return _shifts([scalar.representative_from_key(tuple(key), n).rows for key in keys.tolist()], n)


def test_representative_from_key_roundtrip(transversal_for):
    t = transversal_for(3)
    assert t.keys.dtype == np.uint16 and t.keys.shape == (315, 2)
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
    # n = 5 keys fill 40 bits of their uint64 codes
    for n in (2, 3, 4, 5):
        t = build_transversal(n, seed=1, jobs=jobs, max_samples=max_samples)
        keys, samples = scalar.transversal_keys(n, 1, max_samples)
        assert [key for key, _ in _reps(t)] == sorted(keys) and t.samples_used == samples
        assert t.complete == (len(keys) == dn_index(n))
        assert _shifts(representative_rows(t.keys, n), n) == _scalar_shifts(t.keys, n)


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
    assert np.array_equal(a.keys, b.keys)
    # canonical completion makes representatives independent of the seed too
    assert np.array_equal(a.keys, c.keys)


def test_worker_count_invariance():
    a = build_transversal(3, seed=1, jobs=1)
    b = build_transversal(3, seed=1, jobs=2)
    assert np.array_equal(a.keys, b.keys) and a.samples_used == b.samples_used


@pytest.mark.parametrize("n", [0, 6, 9])
def test_build_transversal_rejects_pair_counts_past_uint16(n):
    # keys stop at n = 5, below the 2n row bits a uint16 mask holds: n = 6
    # has about 1 GB of keys, and n = 9 keys would not fit their masks;
    # sampled, enumerated or summed, every path reaches the one bound
    for build in (functools.partial(build_transversal, max_samples=16),
                  transversal.enumerate_coset_keys,
                  lambda n: enumerate_stats(BellDiagonalState(n, [1.0] + [0.0] * (4**n - 1)))):
        with pytest.raises(ValueError, match=r"transversal pair count must be in \[1, 5\]"):
            build(n)


@pytest.mark.parametrize(
    "layout", [np.asfortranarray, lambda keys: keys[::-1, ::-1]], ids=["column-major", "reversed"]
)
def test_sample_block_reads_keys_in_any_memory_layout(monkeypatch, layout):
    # the sampler packs each key's masks into one code, first mask highest,
    # whatever the keys' memory layout
    given = []

    def keys_in_layout(rows, n):
        given.append(layout(coset_keys(rows, n)))
        return given[-1]

    monkeypatch.setattr(transversal, "coset_keys", keys_in_layout)
    for n in (2, 4, 5):
        codes = transversal._sample_block(n, 0, n, 300)
        want = [functools.reduce(lambda c, w: c << 2 * n | w, key, 0) for key in given[-1].tolist()]
        assert codes.dtype == np.uint64 and codes.tolist() == want


def test_representative_rows_of_uint16_keys_match_uint64():
    # a completion constraint holds 2n + 1 = 17 bits at n = 8, more than a uint16
    keys = coset_keys(random_symplectic_rows(8, np.random.default_rng(8), 50), 8)
    wide = representative_rows(keys, 8)
    narrow = representative_rows(keys.astype(np.uint16), 8)
    assert wide.dtype == np.uint64 and narrow.dtype == np.uint16
    assert narrow.tolist() == wide.tolist()
    assert is_symplectic_rows(wide, 8).all()
    assert (coset_keys(wide, 8) == keys).all()


@functools.cache
def _all_n5_keys() -> np.ndarray:
    """All 782,595 n = 5 coset keys, enumerated without sampling (uint64)."""
    return scalar.enumerated_coset_keys(5)


def test_representative_rows_match_systems_solved_afresh():
    # the incremental elimination against the reference that solves every
    # partner and the last pair as a system of its own: all keys for
    # n = 1..4 (n = 1 has no key rows), 20,000 at n = 5, and sampled keys for
    # n = 6..8; the elimination's 3n-bit words are uint16 up to n = 5 and
    # uint32 from n = 6, which n = 8 fills to 24 bits
    rng = np.random.default_rng(36)
    for n in range(1, 9):
        if n <= 4:
            keys = scalar.enumerated_coset_keys(n)
            assert len(keys) == dn_index(n) and keys.shape[1] == n - 1
        elif n == 5:
            keys = _all_n5_keys()[::39][:20_000]
        else:
            keys = coset_keys(random_symplectic_rows(n, rng, 3000), n)
        want = scalar.completed_rows(keys, n).tolist()
        for dtype in (np.uint16, np.uint64):
            got = representative_rows(keys.astype(dtype), n)
            assert got.dtype == dtype and got.tolist() == want, (n, dtype)


def test_budget_exhaustion_flagged():
    t = build_transversal(3, seed=0, max_samples=16)
    assert not t.complete
    assert len(t) < dn_index(3)
    # the keys found so far, in order, all enumerated
    codes = transversal._codes(transversal.enumerate_coset_keys(3), 3)
    found = transversal._codes(t.keys, 3)
    assert (np.diff(found.astype(np.int64)) > 0).all() and np.isin(found, codes).all()


def test_enumerate_stats_example_state(transversal_for):
    state = BellDiagonalState.from_pairs([EXAMPLE_PAIR, EXAMPLE_PAIR])
    keys, p_suc, f_num, fi_nums = enumerate_stats(state)
    assert np.array_equal(keys, transversal_for(2).keys)
    assert p_suc.shape == f_num.shape == (15,) and fi_nums.shape == (15, 3)
    f_out = f_num / p_suc
    ident = [tuple(key) for key in keys.tolist()].index(coset_key(SymplecticMatrix.identity(2)))
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

    histograms = coset_histograms(representative_rows(transversal_for(4).keys, 4), 4).tolist()
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
    stats = werner_keys(representative_rows(t.keys, n), n)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coset_enumerator_equals_the_oracle(n):
    # the keys eval uses, against the independent enumeration of the tests
    want = _all_n5_keys() if n == 5 else scalar.enumerated_coset_keys(n)
    keys = transversal.enumerate_coset_keys(n)
    assert keys.dtype == np.uint16 and keys.shape == (dn_index(n), n - 1)
    assert np.array_equal(keys, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerated_coset_keys_equal_sampled_transversal(transversal_for, n):
    assert np.array_equal(scalar.enumerated_coset_keys(n), transversal_for(n).keys)


def test_enumerated_n5_double_cosets_reached_by_canonical_triples():
    # all 782,595 cosets of n = 5 without sampling: 36 double cosets, every
    # one holding the coset of some canonical triple's representative
    keys = _all_n5_keys()
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


def test_pareto_envelope_example_state():
    state = BellDiagonalState.from_pairs([EXAMPLE_PAIR, EXAMPLE_PAIR])
    _, p_suc, f_num, _ = enumerate_stats(state)
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


_SAMPLED: dict = {}


def _sampled_keys(n, transversal_for):
    """(keys, representative rows): every coset for n <= 3, 2,000 of the
    cosets for n = 4, 5."""
    if n not in _SAMPLED:
        if n <= 4:
            t = transversal_for(n)
            step = max(1, len(t) // 2000)
            keys = t.keys[::step]
        else:
            keys = np.array(_n5_keys(), dtype=np.uint64)
        _SAMPLED[n] = keys, representative_rows(keys, n)
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
    keys, reps = _sampled_keys(n, transversal_for)
    state = data.draw(_states(n))
    p_suc, f_num, fi_nums = _coset_stats(keys, state)
    want = scalar.enumerate_stats(keys, reps, state)  # numeric_stats of each representative
    assert [_bits(*row) for row in zip(p_suc.tolist(), f_num.tolist(), fi_nums.tolist())] == [
        _bits(s.p_suc, s.f_num, s.fi_nums) for _, s in want
    ]


def _stats_bytes(keys, state):
    return b"".join(column.tobytes() for column in _coset_stats(keys, state))


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_uint16_and_uint64_transversals_agree(transversal_for, n, data):
    keys = transversal_for(n).keys
    assert keys.dtype == np.uint16
    state = data.draw(_states(n))
    assert _stats_bytes(keys, state) == _stats_bytes(keys.astype(np.uint64), state)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_holds_exactly_the_sound_bit_flips(n):
    # every single-bit flip of every key word of sampled keys: an enumerated
    # key exactly when the scalar oracle calls it sound, so the sampler's
    # check against the enumeration rejects exactly the unsound keys
    keys = transversal.enumerate_coset_keys(n)
    enumerated = {tuple(key) for key in keys.tolist()}
    picks = np.random.default_rng(n).choice(len(keys), size=min(len(keys), 40), replace=False)
    unsound = sound = 0
    for key in keys[picks].tolist():
        assert scalar.coset_record_is_sound(key, n)
        for word in range(n - 1):
            for bit in range(16):
                k = list(key)
                k[word] ^= 1 << bit
                ok = scalar.coset_record_is_sound(k, n)
                assert (tuple(k) in enumerated) == ok, (key, word, bit)
                unsound += not ok
                sound += ok
    # both kinds occur: a flipped bit below the pivots can give another coset's key
    assert unsound and sound


def test_keys_and_shifts_give_the_full_rows_sums_at_n5():
    # 20,000 of the 782,595 n = 5 cosets with no sampled build: the key and the
    # two shifts that `_coset_stats` completes give the sums of the full
    # rows of the reference completion, bit for bit and in the same
    # summation order
    keys = _all_n5_keys()[::39][:20_000].astype(np.uint16)
    assert len(keys) == 20_000
    rows = scalar.completed_rows(keys, 5)
    assert np.array_equal(swap_halves(rows[:, 1:5], 5), keys)
    shifts = np.array(_shifts(representative_rows(keys, 5), 5))
    assert shifts.tolist() == _shifts(rows, 5)
    rng = np.random.default_rng(5)
    for _ in range(3):
        state = BellDiagonalState.from_pairs(rng.dirichlet([8, 1, 1, 1], size=5))
        want = state.probs[preimage_index(rows, 5)].sum(axis=-1)
        got = state.probs[preimage_cosets(keys, shifts[:, 0], shifts[:, 1])].sum(axis=-1)
        assert got.tobytes() == want.tobytes()
        p_suc, f_num, _ = _coset_stats(keys, state)
        assert f_num.tobytes() == want[:, 0].tobytes()
        assert p_suc.tobytes() == (((want[:, 0] + want[:, 1]) + want[:, 2]) + want[:, 3]).tobytes()
