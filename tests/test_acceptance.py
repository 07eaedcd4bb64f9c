"""Acceptance suite: one test per criterion, each printing a verdict line.

Run as `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Expensive shared artefacts (full enumerations, transversals) are cached for
the session by conftest helpers.
"""

import inspect
import time

import numpy as np

from bicliff.cli import main as cli_main
from bicliff.circuits import (
    circuit_to_symplectic,
    depth,
    published_circuits,
    synthesize,
    two_qubit_count,
)
from bicliff.dejmps import best_concatenated, candidate_rows
from bicliff.gf2 import (
    CNOT,
    H,
    S,
    gate_matrix,
    random_symplectic,
    symplectic_inner,
)
from bicliff.groups import bfs_closure, dn_generators
from bicliff.metrics import CurveSet
from bicliff.orders import dn_index, dn_order
from bicliff.states import (
    DistStats,
    base,
    coset_histograms,
    counts_key,
    leading_infidelity_term,
    pillars,
    stats_in_epsilon,
    werner_coeff_rows,
    werner_counts,
    werner_stats,
)
from conftest import get_best, get_protocols, get_transversal
from _reference import (
    CASE_COUNTS,
    DISTINCT_COUNTS,
    EPS_F_NUM_N2,
    EPS_P_SUC_N2,
    CIRCUIT_SIZES,
    LEADING_TERMS,
    best_f_poly,
    best_p_poly,
)
from bicliff.ratpoly import RationalPolynomial
from bicliff.transversal import representative_rows
from _scalar_reference import apply, enumerate_cases, kn_generators, werner_state


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_group_orders(capsys):
    t0 = time.time()
    assert cli_main(["tables", "--n-min", "2", "--n-max", "5"]) == 0
    elapsed = time.time() - t0
    lines = capsys.readouterr().out.strip().splitlines()
    want = [
        "2,720,48,15",
        "3,1451520,4608,315",
        "4,47377612800,4128768,11475",
        "5,24815256521932800,31708938240,782595",
    ]
    ok = lines[1:] == want and elapsed < 1.0
    verdict(1, ok, f"order/index table rows exact, {elapsed:.3f}s")


def test_criterion_02_subgroup_closure():
    t0 = time.time()
    sizes = {n: len(bfs_closure(dn_generators(n).matrices())) for n in (2, 3)}
    elapsed = time.time() - t0
    ok = (
        sizes == {2: 48, 3: 4608}
        and sizes[2] == dn_order(2)
        and sizes[3] == dn_order(3)
        and elapsed < 10.0
    )
    verdict(2, ok, f"closure sizes {sizes}, {elapsed:.1f}s")


def test_criterion_03_transversal_completeness():
    counts = {}
    t0 = time.time()
    for n in (2, 3, 4):
        t = get_transversal(n)
        counts[n] = len(t)
        assert t.complete
    elapsed = time.time() - t0
    ok = (
        counts == {2: 15, 3: 315, 4: 11475}
        and counts == {n: dn_index(n) for n in (2, 3, 4)}
        and elapsed < 300
    )
    verdict(3, ok, f"coset counts {counts}, {elapsed:.1f}s")


def test_criterion_04_case_counts():
    t0 = time.time()
    totals = {n: sum(1 for _ in enumerate_cases(n)) for n in range(2, 9)}
    elapsed = time.time() - t0
    ok = totals == CASE_COUNTS and elapsed < 60
    verdict(4, ok, f"case totals {totals}, {elapsed:.1f}s")


def test_criterion_05_distinct_protocol_counts():
    t0 = time.time()
    totals = {n: len(get_protocols(n)) for n in range(2, 9)}
    elapsed = time.time() - t0
    ok = totals == DISTINCT_COUNTS
    verdict(5, ok, f"distinct totals {totals}, {elapsed:.1f}s")


def test_criterion_06_exact_polynomials():
    ok = True
    details = []
    for n in range(2, 9):
        st = get_best(n).protocol.stats
        if st.p_suc != best_p_poly(n) or st.f_num != best_f_poly(n):
            ok = False
            details.append(f"n={n} coefficients differ")
        p_eps = stats_in_epsilon(st.p_suc)
        f_eps = stats_in_epsilon(st.f_num)
        # the substitution must be exact: re-substituting recovers the original
        if (
            p_eps.substitute_one_minus() != st.p_suc
            or f_eps.substitute_one_minus() != st.f_num
        ):
            ok = False
            details.append(f"n={n} eps substitution not involutive")
        if leading_infidelity_term(st) != LEADING_TERMS[n]:
            ok = False
            details.append(f"n={n} leading term differs")
    # the published eps-form row that is self-consistent (n=2) holds verbatim
    st2 = get_best(2).protocol.stats
    if stats_in_epsilon(st2.p_suc) != RationalPolynomial(EPS_P_SUC_N2):
        ok = False
        details.append("n=2 eps p_suc differs")
    if stats_in_epsilon(st2.f_num) != RationalPolynomial(EPS_F_NUM_N2):
        ok = False
        details.append("n=2 eps f_num differs")
    verdict(6, ok, "; ".join(details) or
            "p_suc/f_num exact for n=2..8, eps forms exact, leading terms exact")


def test_criterion_07_known_protocol_recovery():
    two = best_concatenated(2)
    three = best_concatenated(3)
    st2 = get_best(2).protocol.stats
    st3 = get_best(3).protocol.stats
    ok = (
        (two.p_suc, two.f_num, two.fi_nums) == (st2.p_suc, st2.f_num, st2.fi_nums)
        and (three.p_suc, three.f_num, three.fi_nums) == (st3.p_suc, st3.f_num, st3.fi_nums)
    )
    verdict(7, ok, "n=2 optimum is the two-pair step, n=3 optimum is its 3-pair refinement")


def _integer_row(poly, n: int) -> np.ndarray:
    """An exact polynomial's coefficients times 3^n, n+1 wide; they must be integers."""
    row = [c * 3**n for c in poly.coeffs] + [0] * (n + 1 - len(poly.coeffs))
    assert all(c.denominator == 1 for c in row)
    return np.array(row, np.int64)


def test_criterion_08_cross_family_coincidence():
    # f5 / p5 == f4 / p4 as a cross product of integer rows over 3^9
    concat5 = best_concatenated(5)
    opt4 = get_best(4).protocol.stats
    f5, p5 = (_integer_row(q, 5) for q in (concat5.f_num, concat5.p_suc))
    f4, p4 = (_integer_row(q, 4) for q in (opt4.f_num, opt4.p_suc))
    ok = np.array_equal(np.convolve(f5, p4), np.convolve(f4, p5))
    verdict(8, ok, "n=4 optimum F_out equals n=5 concatenated F_out (exact)")


def test_criterion_09_n8_degeneracy():
    res = get_best(8)
    tied = res.tied
    fi_sets = {t.stats.fi_nums for t in tied}
    ok = (
        len(tied) == 4
        and len(fi_sets) == 4
        and all(t.stats.p_suc == tied[0].stats.p_suc for t in tied)
        and all(t.stats.f_num == tied[0].stats.f_num for t in tied)
    )
    verdict(9, ok, f"{len(tied)} protocols tie with {len(fi_sets)} distinct coefficient multisets")


def test_criterion_10_circuits():
    ok = True
    details = []
    for n, circ in published_circuits().items():
        m = circuit_to_symplectic(circ)
        if counts_key(werner_counts(m, n)) != counts_key(get_best(n).protocol.counts):
            ok = False
            details.append(f"n={n} circuit statistics differ")
        if (two_qubit_count(circ), depth(circ)) != CIRCUIT_SIZES[n]:
            ok = False
            details.append(f"n={n} size/depth differ")
    budget = inspect.signature(synthesize).parameters["budget"].default
    for n in (4, 5):
        res = synthesize(get_best(n).protocol, seed=1)
        if res.circuit is None or res.trials_used > budget:
            ok = False
            details.append(f"n={n} synthesis failed in {res.trials_used} trials")
            continue
        m = circuit_to_symplectic(res.circuit)
        if counts_key(werner_counts(m, n)) != counts_key(get_best(n).protocol.counts):
            ok = False
            details.append(f"n={n} synthesized circuit wrong statistics")
        if (two_qubit_count(res.circuit), depth(res.circuit)) > CIRCUIT_SIZES[n]:
            ok = False
            details.append(
                f"n={n} synthesized ({two_qubit_count(res.circuit)}, {depth(res.circuit)})"
                f" worse than {CIRCUIT_SIZES[n]}"
            )
    verdict(10, ok, "; ".join(details) or
            "published circuits verify with exact sizes; synthesis matches n=4, n=5 optima")


def test_criterion_11_cross_engine_oracle():
    ok = True
    for n in (2, 3):
        t = get_transversal(n)
        histograms = coset_histograms(representative_rows(t.keys, n), n).tolist()
        tset = {counts_key(tuple(map(tuple, h))) for h in histograms}
        wset = {counts_key(p.counts) for p in get_protocols(n)}
        ok = ok and tset == wset
    verdict(11, ok, "transversal and case-enumeration Werner statistics sets coincide for n=2,3")


def test_criterion_12_property_suites():
    rng = np.random.default_rng(2024)
    ok = True
    details = []

    # symplectic inner product preserved under the group action
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = random_symplectic(n, rng)
        v = int(rng.integers(0, 1 << (2 * n)))
        w = int(rng.integers(0, 1 << (2 * n)))
        if symplectic_inner(apply(m, v), apply(m, w), n) != symplectic_inner(v, w, n):
            ok = False
            details.append("inner product not preserved")
            break

    # base preservation iff pillar preservation: exhaustive n=2
    gens = [gate_matrix(g, 2) for g in (H(1), H(2), S(1), S(2), CNOT(1, 2), CNOT(2, 1))]
    bset, pset = set(base(2)), set(pillars(2))
    for m in bfs_closure(gens):
        kb = {apply(m, v) for v in bset} == bset
        kp = {apply(m, v) for v in pset} == pset
        if kb != kp:
            ok = False
            details.append("base/pillar equivalence fails at n=2")
            break
    for n in (3, 4):
        bset, pset = set(base(n)), set(pillars(n))
        for _ in range(300):
            m = random_symplectic(n, rng)
            kb = {apply(m, v) for v in bset} == bset
            kp = {apply(m, v) for v in pset} == pset
            if kb != kp:
                ok = False
                details.append(f"base/pillar equivalence fails at n={n}")
                break

    # sorted-statistics invariance under the two symmetry groups
    n = 3
    dn_gens = dn_generators(n).matrices()
    kn_gens = kn_generators(n).matrices()
    for _ in range(20):
        m = random_symplectic(n, rng)
        d = dn_gens[int(rng.integers(len(dn_gens)))]
        k = kn_gens[int(rng.integers(len(kn_gens)))]
        if werner_stats(d @ m, n) != werner_stats(m, n):
            ok = False
            details.append("left invariance fails")
            break
        if werner_stats(m @ k, n) != werner_stats(m, n):
            ok = False
            details.append("right invariance fails")
            break

    # unit statistics at F=1 for every distinct protocol
    for n in range(2, 9):
        for p in get_protocols(n):
            if p.stats.p_suc(1) != 1 or p.stats.f_num(1) != 1:
                ok = False
                details.append(f"n={n} protocol not normalised at F=1")
                break

    # polynomial vs numeric engines on 50 random (protocol, F) pairs per n
    for n in range(2, 9):
        protos = get_protocols(n)
        for _ in range(50):
            p = protos[int(rng.integers(len(protos)))]
            f = float(rng.uniform(0.3, 1.0))
            ev = p.stats.evaluate(f)
            num = DistStats.from_coset_sums(
                *_coset_sums_numeric(p, n, f)
            )
            if not (
                np.isclose(ev.p_suc, num.p_suc, atol=1e-12)
                and np.isclose(ev.f_num, num.f_num, atol=1e-12)
                and all(np.isclose(a, b, atol=1e-12) for a, b in zip(ev.fi_nums, num.fi_nums))
            ):
                ok = False
                details.append(f"n={n} engines disagree")
                break

    verdict(12, ok, "; ".join(details) or
            "invariance, base/pillar, normalisation and cross-engine properties hold")


def _coset_sums_numeric(p, n, f):
    from bicliff.states import coset_sums

    return coset_sums(p.rep, werner_state(n, f))


def test_criterion_13_metric_sanity():
    # one CurveSet per n and family, each over the whole grid: the same
    # floats as evaluating every protocol's DistStats at every point
    ok = True
    details = []
    families = {
        n: (werner_coeff_rows([p.counts for p in get_protocols(n)], n), candidate_rows(n))
        for n in range(2, 9)
    }

    grid = np.round(np.arange(0.50, 0.76, 0.005), 4)
    full_best, dj_best = (
        np.max([CurveSet(families[n][k], n, grid).best_yield() for n in range(2, 9)], axis=0)
        for k in (0, 1)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        above = np.flatnonzero((dj_best > 0) & (full_best / dj_best > 2.5))
    found_ratio = None
    if len(above):
        first = above[0]
        found_ratio = (float(grid[first]), float(full_best[first] / dj_best[first]))
    if found_ratio is None:
        ok = False
        details.append("no yield ratio above 2.5 below F=0.76")

    grid = np.array([0.85, 0.90, 0.95])
    for n in range(4, 9):
        fb, db = (CurveSet(rows, n, grid).best_ree() for rows in families[n])
        for f in grid[fb < db - 1e-12]:
            ok = False
            details.append(f"n={n} REE product worse at F={f}")
        if not (fb > db + 1e-12).any():
            ok = False
            details.append(f"n={n} REE product never strictly better")

    detail = details or [
        f"yield ratio {found_ratio[1]:.2f} at F={found_ratio[0]}; REE product dominates for n=4..8"
    ]
    verdict(13, ok, "; ".join(detail))
