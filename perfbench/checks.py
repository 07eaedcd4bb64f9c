"""Correctness gate: every command the benchmark runs has its output checked.

A check takes the command's standard output (bytes) and returns a list of
problems; an empty list means the output is correct.  Outputs that do not
depend on the workload seed (the `tables`, `werner`, `transversal` and
`compare` CSVs) must match the SHA-256 digests in golden.json, recorded from
the `bicliff` this benchmark was written against.  `eval` CSVs match their
digests for the default seed and satisfy the invariants below on any seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0

EVAL_HEADER = "coset_key,p_suc,f_out,f1,f2,f3,envelope"
N4_COSETS = 11475
TRANSVERSAL_PREFIX = ["4", str(N4_COSETS), str(N4_COSETS), "1"]
VERIFY_N7 = "checked=379 ok=1"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def golden() -> dict:
    return json.loads(Path(__file__).with_name("golden.json").read_text())


def matches_golden(key: str):
    def check(out: bytes) -> list:
        return [] if digest(out) == golden()[key] else [f"{key}: output differs from its recorded digest"]

    return check


def transversal_row(out: bytes) -> list:
    lines = out.decode().splitlines()
    if len(lines) != 2 or lines[1].split(",")[:4] != TRANSVERSAL_PREFIX:
        return [f"transversal: expected a row starting {','.join(TRANSVERSAL_PREFIX)}"]
    return matches_golden("transversal_n4")(out)


def eval_invariants(out: bytes) -> list:
    """11,475 rows of finite values in [0, 1], at least one envelope row."""
    lines = out.decode().splitlines()
    if not lines or lines[0] != EVAL_HEADER:
        return ["eval: unexpected header"]
    rows = lines[1:]
    problems = []
    if len(rows) != N4_COSETS:
        problems.append(f"eval: {len(rows)} rows, expected {N4_COSETS}")
    envelope = 0
    for number, line in enumerate(rows, start=2):
        fields = line.split(",")
        try:
            values = [float(x) for x in fields[1:6]]
        except ValueError:
            values = []
        if (len(fields) != 7 or len(values) != 5 or fields[6] not in ("0", "1")
                or not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)):
            problems.append(f"eval: bad row at line {number}: {line[:80]}")
            break
        envelope += fields[6] == "1"
    if not envelope:
        problems.append("eval: no envelope row")
    return problems


def eval_output(index: int, seed: int):
    def check(out: bytes) -> list:
        problems = eval_invariants(out)
        if seed == DEFAULT_SEED:
            problems += matches_golden(f"eval_{index}")(out)
        return problems

    return check


def verify_output(out: bytes) -> list:
    first = out.decode().splitlines()[:1]
    if not first or not first[0].startswith(VERIFY_N7 + " "):
        return [f"verify: expected '{VERIFY_N7}', got {first}"]
    return []


def best_counts_key(n: int):
    """Werner statistics key of the best-fidelity protocol for n pairs.

    Recomputed in the benchmark's own process (untimed) from `bicliff`, which
    must be importable.
    """
    from bicliff.states import counts_key
    from bicliff.werner import best_fidelity_protocol

    return counts_key(best_fidelity_protocol(n).protocol.counts)


def circuit_output(n: int, expected_key):
    """The emitted circuit's Werner statistics equal the expected protocol's."""

    def check(out: bytes) -> list:
        from bicliff.circuits import CliffordCircuit, circuit_to_symplectic
        from bicliff.states import counts_key, werner_counts

        blobs = [line for line in out.decode().splitlines() if line.startswith("[")]
        if not blobs:
            return ["circuit: no circuit in the output"]
        try:
            circuit = CliffordCircuit.from_json_obj(n, json.loads(blobs[-1]))
            key = counts_key(werner_counts(circuit_to_symplectic(circuit), n))
        except (ValueError, KeyError, TypeError) as exc:
            return [f"circuit: unreadable circuit: {exc}"]
        return [] if key == expected_key else ["circuit: statistics differ from the best protocol's"]

    return check
