"""Optimised protocols versus concatenated two-pair baselines.

The baseline family applies the classic two-to-one step along every binary
tree of pairs with every per-node rotation choice.  The full enumeration
contains it, so it can only do better; these comparisons show where the gap
opens up for fidelity, hashing yield, entanglement measures and a
threshold-fidelity rate.
"""

from bicliff import (
    best_concatenated,
    best_fidelity_protocol,
    distinct_protocols,
    hashing_yield,
    leading_infidelity_term,
    ree_product,
    target_rate,
)
from bicliff.dejmps import concatenated_candidates
from bicliff.states import DistStats

NS = range(2, 7)  # extend to 8 if you have a minute to spare

protos = {n: distinct_protocols(n) for n in NS}
concat = {n: [DistStats.from_coset_sums(*k) for k in concatenated_candidates(n)] for n in NS}

print("== leading infidelity behaviour ==")
for n in NS:
    full = leading_infidelity_term(best_fidelity_protocol(n, protocols=protos[n]).protocol.stats)
    dj = leading_infidelity_term(best_concatenated(n))
    print(f"n={n}: optimised 1 - {full[1]}*eps^{full[0]}   baseline 1 - {dj[1]}*eps^{dj[0]}")

print("\n== output fidelity at a few inputs ==")
for f in (0.65, 0.80, 0.95):
    for n in (4, 5):
        fb = max(p.stats.f_out_at(f) for p in protos[n])
        db = max(st.f_out_at(f) for st in concat[n])
        print(f"F_in={f:.2f} n={n}: optimised {fb:.6f}  baseline {db:.6f}  gap {fb - db:+.6f}")

print("\n== hashing yield (distil once, then hash), envelope over n ==")
for f in (0.60, 0.70, 0.90):
    full_best = max(hashing_yield(p.stats.evaluate(f), n) for n in NS for p in protos[n])
    dj_best = max(hashing_yield(st.evaluate(f), n) for n in NS for st in concat[n])
    ratio = "n/a" if dj_best == 0 else f"{full_best / dj_best:.2f}x"
    print(f"F_in={f:.2f}: optimised {full_best:.5f}  baseline {dj_best:.5f}  ratio {ratio}")

print("\n== success probability x relative entropy of entanglement ==")
for n in (4, 6):
    for f in (0.85, 0.95):
        fb = max(ree_product(p.stats.evaluate(f)) for p in protos[n])
        db = max(ree_product(st.evaluate(f)) for st in concat[n])
        print(f"n={n} F_in={f:.2f}: optimised {fb:.6f}  baseline {db:.6f}")

print("\n== rate to reach the device-independent QKD threshold 0.930025 ==")
full_sets = {n: [(p.case_index, p.stats) for p in protos[n]] for n in NS}
dj_sets = {n: [(i, st) for i, st in enumerate(concat[n])] for n in NS}
for f in (0.80, 0.85, 0.90, 0.94):
    a = target_rate(f, 0.930025, full_sets)
    b = target_rate(f, 0.930025, dj_sets)
    print(f"F_in={f:.2f}: optimised rate {a.value:.5f} (n={a.n})  baseline {b.value:.5f} (n={b.n})")
