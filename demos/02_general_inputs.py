"""Every protocol for a few non-identical Bell-diagonal pairs.

One representative per coset of the statistics-preserving subgroup is enough
to see every achievable (success probability, output fidelity) pair.  The
cosets are enumerated by their keys, with no sampling, and each coset's
representative is completed canonically from its key.
"""

import numpy as np

from bicliff import BellDiagonalState, enumerate_stats, pareto_envelope

pair = (0.7, 0.15, 0.10, 0.05)

for n in (2, 3):
    state = BellDiagonalState.from_pairs([pair] * n)
    keys, p_suc, f_num, _ = enumerate_stats(state)
    print(f"n={n}: {len(keys)} cosets enumerated")

    f_out = np.divide(f_num, p_suc, out=np.zeros_like(p_suc), where=p_suc > 0)
    env = np.flatnonzero(pareto_envelope(p_suc, f_out))
    # envelope points by descending p_suc, then descending F_out
    env = env[np.lexsort((-f_out[env], -p_suc[env]))]

    print(f"  two copies of {pair}" if n == 2 else f"  {n} copies of {pair}")
    print(f"  achievable statistics: {len(keys)} cosets, {len(env)} on the envelope")
    best_f, best_p = np.argmax(f_out), np.argmax(p_suc)
    print(f"  highest F_out : {f_out[best_f]:.6f} at p_suc = {p_suc[best_f]:.6f}")
    print(f"  highest p_suc : {p_suc[best_p]:.6f} at F_out = {f_out[best_p]:.6f}")
    print("  envelope (p_suc, F_out):")
    for i in env:
        print(f"    ({p_suc[i]:.6f}, {f_out[i]:.6f})")
    print()

print("the identity coset keeps the first pair untouched, so its row shows")
print("F_out equal to the input fidelity 0.7 and p_suc = 0.75 for n=2.")
