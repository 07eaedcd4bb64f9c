"""Per-layer metrics computed from the span files of a traced run.

PER_LAYER lists every metric the traced run reports, as (name, unit,
better); BENCHMARK.json carries the same list.  A layer the workload does not
exercise reports 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from spans import self_times

PER_LAYER = [
    ("werner.graphs_calls", "count", "lower"),
    ("werner.graphs_s", "s", "lower"),
    ("werner.keys_s", "s", "lower"),
    ("werner.cases", "count", "lower"),
    ("werner.cases_per_s", "1/s", "higher"),
    ("werner.distinct_self_s", "s", "lower"),
    ("werner.materialise_s", "s", "lower"),
    ("werner.distinct", "count", "higher"),
    ("werner.dedup_ratio", "ratio", "higher"),
    ("werner.best_s", "s", "lower"),
    ("transversal.samples", "count", "lower"),
    ("transversal.useful_ratio", "ratio", "higher"),
    ("transversal.samples_per_s", "1/s", "higher"),
    ("transversal.wait_s", "s", "lower"),
    ("gf2.random_symplectic_calls", "count", "lower"),
    ("gf2.random_symplectic_s", "s", "lower"),
    ("groups.coset_key_calls", "count", "lower"),
    ("groups.coset_key_s", "s", "lower"),
    ("transversal.representative_calls", "count", "lower"),
    ("transversal.representative_s", "s", "lower"),
    ("states.numeric_stats_calls", "count", "lower"),
    ("states.numeric_stats_s", "s", "lower"),
    ("transversal.enumerate_stats_s", "s", "lower"),
    ("transversal.pareto_s", "s", "lower"),
    ("cli.eval_self_s", "s", "lower"),
    ("cache.write_s", "s", "lower"),
    ("cache.write_bytes", "bytes", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.load_records_per_s", "1/s", "higher"),
    ("cache.werner_counts_calls", "count", "lower"),
    ("ratpoly.poly_from_strings_calls", "count", "lower"),
    ("ratpoly.poly_from_strings_s", "s", "lower"),
    ("cache.verify_s", "s", "lower"),
    ("cache.verify_records", "count", "higher"),
    ("dejmps.candidates_calls", "count", "lower"),
    ("dejmps.candidates_s", "s", "lower"),
    ("metrics.target_rate_calls", "count", "lower"),
    ("metrics.target_rate_s", "s", "lower"),
    ("cli.compare_self_s", "s", "lower"),
    ("circuits.trials", "count", "higher"),
    ("circuits.hits", "count", "higher"),
    ("circuits.hit_ratio", "ratio", "higher"),
    ("circuits.trials_per_s", "1/s", "higher"),
    ("circuits.synthesize_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Profile:
    """Calls, total and self seconds per span name, plus counters."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.secs: dict = defaultdict(float)
        self.self_secs: dict = defaultdict(float)
        self.counters: dict = defaultdict(int)

    def add_process(self, spans, counters) -> None:
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.secs[name] += end - start
            self.self_secs[name] += own
        for key, value in counters.items():
            self.counters[key] += value

    def add_worker(self, totals) -> None:
        for name, (calls, secs) in totals.items():
            self.calls[name] += calls
            self.secs[name] += secs

    @classmethod
    def from_dir(cls, trace_dir: Path) -> "Profile":
        prof = cls()
        for path in sorted(trace_dir.glob("*.json")):
            data = json.loads(path.read_text())
            if "spans" in data:
                prof.add_process(data["spans"], data["counters"])
            else:
                prof.add_worker(data["totals"])
        return prof

    def metrics(self, overhead_s: float) -> dict:
        c, s, own, k = self.calls, self.secs, self.self_secs, self.counters
        materialise = ("werner.build_representative", "werner.werner_counts",
                       "werner.stats_from_counts")
        load_s = s["cache.load_werner_cache"] + s["cache.load_transversal_cache"]
        sampling_s = s["cli.build_transversal"] - s["transversal.representative_from_key"]
        return {
            "werner.graphs_calls": c["werner.graphs_up_to_iso"],
            "werner.graphs_s": s["werner.graphs_up_to_iso"],
            "werner.keys_s": s["werner.all_case_keys"],
            "werner.cases": k["werner.cases"],
            "werner.cases_per_s": _ratio(k["werner.cases"], s["werner.all_case_keys"]),
            "werner.distinct_self_s": own["cli.distinct_protocols"],
            "werner.materialise_s": sum(s[name] for name in materialise),
            "werner.distinct": k["werner.distinct"],
            "werner.dedup_ratio": _ratio(k["werner.distinct"], k["werner.cases"]),
            "werner.best_s": s["cli.best_fidelity_protocol"],
            "transversal.samples": k["transversal.samples"],
            "transversal.useful_ratio": _ratio(k["transversal.cosets"], k["transversal.samples"]),
            "transversal.samples_per_s": _ratio(k["transversal.samples"], sampling_s),
            "transversal.wait_s": s["transversal.wait"],
            "gf2.random_symplectic_calls": c["transversal.random_symplectic"],
            "gf2.random_symplectic_s": s["transversal.random_symplectic"],
            "groups.coset_key_calls": c["transversal.coset_key"],
            "groups.coset_key_s": s["transversal.coset_key"],
            "transversal.representative_calls": c["transversal.representative_from_key"],
            "transversal.representative_s": s["transversal.representative_from_key"],
            "states.numeric_stats_calls": c["transversal.numeric_stats"],
            "states.numeric_stats_s": s["transversal.numeric_stats"],
            "transversal.enumerate_stats_s": s["cli.enumerate_stats"],
            "transversal.pareto_s": s["cli.pareto_envelope"],
            "cli.eval_self_s": own["cli.cmd_eval"],
            "cache.write_s": s["cache.write_cache"],
            "cache.write_bytes": k["cache.write_bytes"],
            "cache.load_s": load_s,
            "cache.load_records_per_s": _ratio(k["cache.load_records"], load_s),
            "cache.werner_counts_calls": c["cache.werner_counts"],
            "ratpoly.poly_from_strings_calls": c["cache.poly_from_strings"],
            "ratpoly.poly_from_strings_s": s["cache.poly_from_strings"],
            "cache.verify_s": s["cache.verify_cache"],
            "cache.verify_records": k["cache.verify_records"],
            "dejmps.candidates_calls": c["cli.concatenated_candidates"],
            "dejmps.candidates_s": s["cli.concatenated_candidates"],
            "metrics.target_rate_calls": c["cli.target_rate"],
            "metrics.target_rate_s": s["cli.target_rate"],
            "cli.compare_self_s": own["cli.cmd_compare"],
            "circuits.trials": k["circuits.trials"],
            "circuits.hits": k["circuits.hits"],
            "circuits.hit_ratio": _ratio(k["circuits.hits"], k["circuits.trials"]),
            "circuits.trials_per_s": _ratio(k["circuits.trials"], s["cli.synthesize"]),
            "circuits.synthesize_s": s["cli.synthesize"],
            "trace.overhead_s": overhead_s,
        }
