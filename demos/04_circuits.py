"""Low-depth circuits for the optimal protocols.

Any protocol has a circuit of the reduced form: CNOTs with control above
target, then CZs, then a Hadamard on every measured qubit.  Random search in
that family draws candidates in ascending two-qubit gate count, accepts on
exact statistics equality and stops after the first count with a match.  It
finds circuits as small as the published ones within seconds for n=4..6.
"""

from bicliff import (
    best_fidelity_protocol,
    circuit_to_symplectic,
    depth,
    published_circuits,
    synthesize,
    two_qubit_count,
    werner_stats,
)
from bicliff.circuits import ascii_diagram

print("== published circuits, re-verified against the enumeration ==")
for n, circ in sorted(published_circuits().items()):
    best = best_fidelity_protocol(n)
    stats = werner_stats(circuit_to_symplectic(circ), n)
    match = stats == best.protocol.stats
    print(f"n={n}: {two_qubit_count(circ)} two-qubit gates, depth {depth(circ)}, "
          f"statistics match the optimum: {match}")

print("\n== the n=4 circuit ==")
print(ascii_diagram(published_circuits()[4]))

print("\n== synthesis from scratch ==")
found = {}
for n in (4, 5, 6):
    target = best_fidelity_protocol(n).protocol
    res = synthesize(target, budget=1_000_000, seed=1)
    found[n] = res
    circ = res.circuit
    print(f"n={n}: scanned {res.trials_used} candidates, {res.hits} matched at the fewest "
          f"two-qubit gates, {two_qubit_count(circ)}; the shallowest has depth {depth(circ)}")

print("\nsynthesized n=4 circuit:")
print(ascii_diagram(found[4].circuit))
