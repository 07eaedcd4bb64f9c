"""Size limits and group orders: integer facts that need no numpy.

The command-line front end checks its arguments and prints `tables` from
these alone, so neither loads numpy.
"""

from math import prod

MAX_PAIRS = 16  # 2n <= 32 bits keeps every vector in one machine word
MAX_GRAPH_NODES = 7  # Werner enumeration: graphs on n-1 nodes for n up to 8
# coset keys, and so eval and transversal, stop at n = 5: n = 6 has
# 103,378,275 cosets, whose uint16 keys alone take about 1 GB
MAX_EVAL_PAIRS = 5


def check_pair_count(n: int) -> None:
    if not 1 <= n <= MAX_PAIRS:
        raise ValueError(f"pair count must be in [1, {MAX_PAIRS}], got {n}")


def sp_order(n: int) -> int:
    """Order of Sp(2n, F2): 2^(n^2) * prod_{j=1..n} (4^j - 1)."""
    check_pair_count(n)
    return (1 << (n * n)) * prod(4**j - 1 for j in range(1, n + 1))


def dn_order(n: int) -> int:
    """Order of the distillation subgroup: 6 * 2^(n^2-1) * prod (2^j - 1)."""
    return 6 * (1 << (n * n - 1)) * prod((1 << j) - 1 for j in range(1, n))


def dn_index(n: int) -> int:
    """Number of right cosets of the distillation subgroup in Sp(2n, F2)."""
    value = ((1 << n) - 1) * prod((1 << j) + 1 for j in range(1, n + 1))
    assert value % 3 == 0
    return value // 3
