"""Span recorder for the traced benchmark run.

Run as a script, it replaces `python -m bicliff.cli` for one command:

    python3 perfbench/spans.py TRACE_PREFIX OP_ID <bicliff arguments...>

Before the command starts it wraps the functions listed in PROBES, each in
the module that calls it (so `bicliff.werner.graphs_up_to_iso` is the name
`werner` looks up, and `bicliff.cli.target_rate` the one `cli` looks up).
Each call becomes a span (name, start, end, parent, op id), kept in memory
and written to TRACE_PREFIX.main.json when the command returns.  Pool
workers forked by the command inherit the wrappers; there calls are summed
per name instead of kept as spans, and each worker writes its totals to
TRACE_PREFIX.w<pid>.json when it exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict

# module -> names looked up in that module's globals
PROBES = {
    "bicliff.cli": [
        "cmd_tables", "cmd_werner", "cmd_transversal", "cmd_eval",
        "cmd_compare", "cmd_circuit", "cmd_verify",
        "distinct_protocols", "best_fidelity_protocol", "case_count",
        "build_transversal", "enumerate_stats", "pareto_envelope",
        "concatenated_candidates", "target_rate", "synthesize",
    ],
    "bicliff.werner": [
        "graphs_up_to_iso", "all_case_keys", "build_representative",
        "werner_counts", "stats_from_counts",
    ],
    "bicliff.transversal": [
        "random_symplectic", "coset_key", "representative_from_key",
        "numeric_stats",
    ],
    "bicliff.cache": [
        "write_cache", "load_werner_cache", "load_transversal_cache",
        "werner_counts", "poly_from_strings", "verify_cache",
    ],
}

# span name -> counters taken from the call's arguments and result
COUNTS = {
    "werner.all_case_keys": lambda args, r: {"werner.cases": len(r)},
    "cli.distinct_protocols": lambda args, r: {"werner.distinct": len(r)},
    "cli.build_transversal": lambda args, r: {
        "transversal.samples": r.samples_used, "transversal.cosets": len(r),
    },
    "cache.write_cache": lambda args, r: {"cache.write_bytes": os.path.getsize(args[0])},
    "cache.load_werner_cache": lambda args, r: {"cache.load_records": len(r[1])},
    "cache.load_transversal_cache": lambda args, r: {"cache.load_records": len(r[1])},
    "cache.verify_cache": lambda args, r: {"cache.verify_records": r[1]},
    "cli.synthesize": lambda args, r: {
        "circuits.trials": r.trials_used, "circuits.hits": r.hits,
    },
}

# the transversal's process pool: time the parent spends in Future.result
POOL_PROBE = ("bicliff.transversal", "ProcessPoolExecutor", "transversal.wait")


class Tracer:
    """Spans of one process; per-name totals once forked into a pool worker."""

    def __init__(self, op: int, prefix: str):
        self.op = op
        self.prefix = prefix
        self.spans: list = []  # [name, start, end, parent index or -1, op]
        self.stack: list = []
        self.counters: dict = defaultdict(int)
        self.totals: dict | None = None  # name -> [calls, seconds] in workers

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            if self.totals is not None:
                try:
                    return fn(*args, **kwargs)
                finally:
                    total = self.totals.setdefault(name, [0, 0.0])
                    total[0] += 1
                    total[1] += time.perf_counter() - start
            span = [name, start, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] += value
            return result

        return traced

    def timed_pool(self, base, name: str):
        tracer = self

        class TimedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                future.result = tracer.wrap(future.result, name)
                return future

        return TimedPool

    def enter_worker(self) -> None:
        """Runs in a freshly forked pool worker: keep totals, write them at exit."""
        self.spans, self.stack, self.totals = [], [], {}
        self.counters.clear()
        multiprocessing.util.Finalize(None, self.write_worker, exitpriority=10)

    def write_worker(self) -> None:
        with open(f"{self.prefix}.w{os.getpid()}.json", "w") as fh:
            json.dump({"op": self.op, "totals": self.totals}, fh)

    def write_main(self) -> None:
        with open(f"{self.prefix}.main.json", "w") as fh:
            json.dump({"op": self.op, "spans": self.spans, "counters": self.counters}, fh)

    def install(self) -> None:
        for module_name, names in PROBES.items():
            module = importlib.import_module(module_name)
            short = module_name.rsplit(".", 1)[1]
            for attr in names:
                label = f"{short}.{attr}"
                setattr(module, attr, self.wrap(getattr(module, attr), label, COUNTS.get(label)))
        module_name, attr, label = POOL_PROBE
        module = importlib.import_module(module_name)
        setattr(module, attr, self.timed_pool(getattr(module, attr), label))
        multiprocessing.util.register_after_fork(self, Tracer.enter_worker)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def main(argv) -> int:
    prefix, op, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(op, prefix)
    tracer.install()
    from bicliff import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.write_main()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
