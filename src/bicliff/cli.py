"""Command-line front end.

Subcommands: tables, werner, transversal, eval, compare, circuit, verify.
Every CSV is byte-deterministic given the command, flags and seed: floats are
printed with 17 significant digits, exact rationals both as num/den strings
and as decimals.  A command that reads a Werner cache builds and writes it
first if it is missing.  eval reads its state file alone: it enumerates the
coset keys, once per run, and reads and writes no cache.
Exit codes: 0 success, 2 invalid input, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from .orders import MAX_EVAL_PAIRS, MAX_GRAPH_NODES, MAX_PAIRS, dn_index, dn_order, sp_order


def _deferred(module: str, name: str):
    """A stand-in for `name` of a submodule that imports the submodule when called.

    Each command imports the library it runs, so a process loads only what its
    command needs.  The names below stay globals of this module because the
    benchmark's tracer (perfbench/spans.py) wraps them here by name.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


distinct_protocols = _deferred("werner", "distinct_protocols")
best_fidelity_protocol = _deferred("werner", "best_fidelity_protocol")
case_count = _deferred("werner", "case_count")
build_transversal = _deferred("transversal", "build_transversal")
enumerate_stats = _deferred("transversal", "enumerate_stats")
pareto_envelope = _deferred("transversal", "pareto_envelope")
concatenated_candidates = _deferred("dejmps", "candidate_rows")
target_rate = _deferred("metrics", "target_rate")  # not called: only the tracer looks it up
synthesize = _deferred("circuits", "synthesize")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 4

F_TAR_DEFAULT = 0.930025
# compare holds every protocol at every grid point: 10,000 steps keep one
# n = 8 curve array near 140 MB
MAX_GRID_STEPS = 10_000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def fmt(x) -> str:
    return format(float(x), ".17g")


def poly_decimal(p) -> str:
    return ";".join(fmt(c) for c in p.coeffs)


@contextmanager
def _output(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _emit(path: str, header: list, rows) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cache_path(mode: str, cache_dir: str, n: int) -> Path:
    return Path(cache_dir) / f"{mode}_n{n}.bcp"


def _read_cache(read, path, rebuild: str):
    """Call a cache reader; a cache it cannot read exits 2 with a rebuild hint."""
    try:
        return read(path)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(
            EXIT_INVALID, f"bad cache file {path}: {exc}; rebuild it with: {rebuild}"
        ) from exc


def _build_werner(cache_dir: str, n: int, jobs: int):
    """The n-pair Werner protocols, enumerated and written to their cache file."""
    from . import cache

    protocols = distinct_protocols(n, jobs=jobs)
    cache.write_werner_cache(_cache_path("werner", cache_dir, n), n, protocols)
    return protocols


def _load_cache(cache_dir: str, n: int, jobs: int = 1):
    """The protocols of the n-pair Werner cache, exit 2 if unreadable.

    A missing cache is built first, with `jobs` workers, and then read back
    like any other.
    """
    path = _cache_path("werner", cache_dir, n)
    if not path.exists():
        print(f"building missing cache {path}", file=sys.stderr)
        _build_werner(cache_dir, n, jobs)
    from . import cache

    # looked up per call: the benchmark's tracer replaces it after import
    header, protocols = _read_cache(cache.load_werner_cache, path,
                                    f"bicliff werner --n {n} --cache {cache_dir}")
    if header["n"] != n:
        raise CliError(EXIT_INVALID, f"bad cache file {path}: holds n={header['n']}")
    return protocols


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_tables(args) -> int:
    if args.n_min > args.n_max:
        raise CliError(EXIT_INVALID, f"--n-min {args.n_min} must not exceed --n-max {args.n_max}")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        rows.append([n, sp_order(n), dn_order(n), dn_index(n)])
    _emit(args.out, ["n", "sp_order", "distill_subgroup_order", "coset_count"], rows)
    return EXIT_OK


def cmd_werner(args) -> int:
    from .ratpoly import format_poly
    from .states import leading_infidelity_term

    n = args.n
    protocols = _build_werner(args.cache, n, args.jobs)
    res = best_fidelity_protocol(n, protocols=protocols)
    st = res.protocol.stats
    order, coeff = leading_infidelity_term(st)
    rows = [[
        n,
        case_count(n),
        len(protocols),
        res.protocol.case_index,
        len(res.tied),
        int(res.dominant),
        format_poly(st.p_suc),
        poly_decimal(st.p_suc),
        format_poly(st.f_num),
        poly_decimal(st.f_num),
        order,
        str(coeff),
    ]]
    _emit(args.out, [
        "n", "cases", "distinct", "best_case_index", "tie_count", "dominant",
        "p_suc_exact", "p_suc_decimal", "f_num_exact", "f_num_decimal",
        "leading_order", "leading_coeff",
    ], rows)
    return EXIT_OK


def cmd_transversal(args) -> int:
    from . import cache

    try:
        t = build_transversal(args.n, seed=args.seed, jobs=args.jobs)
    except ValueError as exc:  # a sampled key the enumeration does not hold
        raise CliError(EXIT_INVALID, f"internal error: {exc}") from exc
    if t.complete:  # a cache holds complete transversals only
        cache.write_transversal_cache(_cache_path("transversal", args.cache, args.n), t, args.seed)
    _emit(args.out, ["n", "cosets", "target", "complete", "samples"],
          [[args.n, len(t), t.target_size, int(t.complete), t.samples_used]])
    if not t.complete:
        print(f"warning: transversal incomplete ({len(t)}/{t.target_size})", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _numbers(values, what: str) -> list:
    """A JSON list of numbers (int or float, not bool), which the state reads as float64."""
    if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
        raise ValueError(f"{what} must be a list of numbers")
    return values


def _read_state(path: str):
    """The BellDiagonalState of a state file: 4^n probabilities, n in 1..MAX_EVAL_PAIRS."""
    from .states import BellDiagonalState

    try:
        with open(path) as fh:
            obj = json.load(fh)
        n = obj["n"]
        if type(n) is not int or not 1 <= n <= MAX_EVAL_PAIRS:
            raise ValueError(f"n={n!r} must be an integer in 1..{MAX_EVAL_PAIRS}")
        if "pairs" in obj:
            if len(obj["pairs"]) != n:
                raise ValueError("pairs length differs from n")
            return BellDiagonalState.from_pairs(
                [_numbers(pair, f"pair {i}") for i, pair in enumerate(obj["pairs"])]
            )
        return BellDiagonalState(n, _numbers(obj["probs"], "probs"))
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CliError(EXIT_INVALID, f"bad state file {path}: {exc}") from exc


def cmd_eval(args) -> int:
    if args.min_fidelity is not None and not 0 <= args.min_fidelity <= 1:  # also false for NaN
        raise CliError(EXIT_INVALID, f"--min-fidelity {args.min_fidelity} must be finite, "
                       "with 0 <= --min-fidelity <= 1")
    import numpy as np

    from .transversal import CHUNK

    state = _read_state(args.state)
    n = state.n
    keys, p, f_num, fi_nums = enumerate_stats(state)
    live = p > 0  # F_out and the F_i overwrite their numerators; rows without success read 0
    f_out = np.divide(f_num, p, out=f_num, where=live)
    fis = np.divide(fi_nums, p[:, None], out=fi_nums, where=live[:, None])
    f_out[~live] = fis[~live] = 0
    envelope = pareto_envelope(p, f_out)
    keep = slice(None) if args.min_fidelity is None else f_out >= args.min_fidelity
    # one % template per row: the key as d:d:..., floats as fmt() prints them;
    # CHUNK rows at a time become Python objects
    template = ":".join(["%d"] * (n - 1)) + ",%.17g" * 5 + ",%d\n"
    columns = [column[keep] for column in (*keys.T, p, f_out, *fis.T, envelope)]
    with _output(args.out) as fh:
        fh.write("coset_key,p_suc,f_out,f1,f2,f3,envelope\n")
        for lo in range(0, len(columns[-1]), CHUNK):
            rows = zip(*(column[lo : lo + CHUNK].tolist() for column in columns))
            fh.writelines(template % row for row in rows)
    return EXIT_OK


def _check_compare_args(args) -> None:
    problems = []
    if not 0.5 < args.f_tar < 1:
        problems.append(f"--f-tar {args.f_tar} must lie strictly between 0.5 and 1")
    if not args.f_step > 0 or not math.isfinite(args.f_step):
        problems.append(f"--f-step {args.f_step} must be positive and finite")
    elif (args.f_max - args.f_min) / args.f_step > MAX_GRID_STEPS:
        problems.append(f"--f-step {args.f_step} is too small: at most {MAX_GRID_STEPS} "
                        "steps fit between --f-min and --f-max")
    if not 0 <= args.f_min <= args.f_max <= 1:  # also false for NaN
        problems.append(f"--f-min {args.f_min} and --f-max {args.f_max} must be finite, "
                        "with 0 <= --f-min <= --f-max <= 1")
    if args.n_min > args.n_max:
        problems.append(f"--n-min {args.n_min} must not exceed --n-max {args.n_max}")
    if problems:
        raise CliError(EXIT_INVALID, "; ".join(problems))


# metric -> (its figure from an n-pair `CurveSet` and f_tar, whether the CSV has a row per n)
_METRICS = {
    "fidelity": (lambda curves, f_tar: curves.best_fidelity(), True),
    "yield": (lambda curves, f_tar: curves.best_yield(), False),
    "ree": (lambda curves, f_tar: curves.best_ree(), True),
    "target-rate": (lambda curves, f_tar: curves.best_target_rate(f_tar), False),
}


def cmd_compare(args) -> int:
    _check_compare_args(args)
    import numpy as np

    from .metrics import CurveSet
    from .states import werner_coeff_rows

    grid = np.round(np.arange(args.f_min, args.f_max + args.f_step / 2, args.f_step), 9)
    grid = grid[grid <= round(args.f_max, 9)]  # arange may overshoot by half a step
    ns = range(args.n_min, args.n_max + 1)
    # coefficient rows over 3^n per n; one n's curves are alive at a time
    full = {
        n: werner_coeff_rows([p.counts for p in _load_cache(args.cache, n)], n)
        for n in ns
    }
    dejmps = {n: concatenated_candidates(n) for n in ns}
    figure, per_n = _METRICS[args.metric]
    a, b = (np.array([figure(CurveSet(family[n], n, grid), args.f_tar) for n in ns])
            for family in (full, dejmps))
    if per_n:
        header, rows, series = ["f_in", "n", "full", "dejmps", "difference"], [], []
        for n, an, bn in zip(ns, a, b):
            rows += ([fmt(f), n, fmt(x), fmt(y), fmt(x - y)] for f, x, y in zip(grid, an, bn))
            series += [(f"optimised n={n}", grid, an), (f"dejmps n={n}", grid, bn)]
    else:
        a, b = a.max(axis=0), b.max(axis=0)
        header, columns = ["f_in", "full", "dejmps"], [grid, a, b]
        if args.metric == "yield":
            header.append("ratio")
            with np.errstate(divide="ignore", invalid="ignore"):
                columns.append(a / b)  # inf where only `full` is positive, nan where neither is
        rows = [[fmt(v) for v in row] for row in zip(*columns)]
        series = [("optimised", grid, a), ("dejmps", grid, b)]

    _emit(args.out, header, rows)
    if args.svg:
        _svg_lineplot(args.svg, f"{args.metric} vs input fidelity", series)
    return EXIT_OK


def cmd_circuit(args) -> int:
    from .circuits import _matches, circuit_to_symplectic, published_circuits
    from .states import encode_counts

    protocols = _load_cache(args.cache, args.n, jobs=args.jobs)
    res = best_fidelity_protocol(args.n, protocols=protocols)
    target = res.protocol
    synth = synthesize(target, budget=args.budget, seed=args.seed, jobs=args.jobs)

    key = encode_counts(target.counts)

    def _verified(circ) -> bool:
        return bool(_matches(circuit_to_symplectic(circ).rows, args.n, key))

    if synth.circuit is not None:
        circ = synth.circuit
        if not _verified(circ):
            raise CliError(EXIT_INVALID, "internal error: synthesized circuit failed re-verification")
        print(f"# synthesized in {synth.trials_used} trials ({synth.hits} hits)")
        _print_circuit(circ, args.out)
        return EXIT_OK

    published = published_circuits().get(args.n)
    if published is not None and _verified(published):
        print(
            f"# budget exhausted after {synth.trials_used} trials; "
            "falling back to the published circuit (verified: statistics match)"
        )
        _print_circuit(published, args.out)
        return EXIT_BUDGET
    raise CliError(
        EXIT_BUDGET,
        f"budget exhausted after {synth.trials_used} trials and no verified fallback: {synth.message}",
    )


def _print_circuit(circ, out_path) -> None:
    from .circuits import ascii_diagram, depth, two_qubit_count

    print(ascii_diagram(circ))
    print(f"# two_qubit_gates={two_qubit_count(circ)} depth={depth(circ)}")
    blob = json.dumps(circ.to_json_obj(), separators=(",", ":"))
    if out_path == "-":
        print(blob)
    else:
        Path(out_path).write_text(blob + "\n")


def cmd_verify(args) -> int:
    from . import cache

    ok, checked, message = _read_cache(
        cache.verify_cache, args.cache_file, "bicliff werner or bicliff transversal"
    )
    print(f"checked={checked} ok={int(ok)} {message}")
    return EXIT_OK if ok else EXIT_INVALID


# ---------------------------------------------------------------------------
# SVG plotting (no external renderer; simple polyline chart)
# ---------------------------------------------------------------------------

_SVG_COLORS = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896",
]


def _svg_lineplot(path: str, title: str, series) -> None:
    width, height, pad = 720, 480, 60
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys if math.isfinite(y)]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 20}" font-size="11">{x0:g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 20}" text-anchor="end" font-size="11">{x1:g}</text>',
        f'<text x="{pad - 6}" y="{height - pad}" text-anchor="end" font-size="11">{y0:.3g}</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" font-size="11">{y1:.3g}</text>',
    ]
    for i, (name, xs, ys) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = [
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(y)
        ]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}"/>'
        )
        ly = pad + 16 * i
        parts.append(f'<text x="{width - pad + 4}" y="{ly}" font-size="10" fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} must be at least {low}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicliff",
        description="Enumerate and optimise bilocal Clifford distillation protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="-", help="output CSV path (default stdout)")
        p.add_argument("--cache", default="bicliff-cache", help="protocol cache directory")

    def add_work(p, seed=True):
        p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
        if seed:
            p.add_argument("--seed", type=_at_least(0), default=0)

    pair_counts = range(1, MAX_PAIRS + 1)
    eval_pair_counts = range(1, MAX_EVAL_PAIRS + 1)
    werner_pair_counts = range(2, MAX_GRAPH_NODES + 2)
    p = sub.add_parser("tables", help="group orders and coset counts")
    p.add_argument("--n-min", type=int, default=1, choices=pair_counts, metavar="N")
    p.add_argument("--n-max", type=int, default=5, choices=pair_counts, metavar="N")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("werner", help="enumerate all protocols on identical Werner inputs")
    p.add_argument("--n", type=int, required=True, choices=werner_pair_counts)
    add_common(p)
    add_work(p, seed=False)
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("transversal", help="build a coset transversal for general inputs")
    p.add_argument("--n", type=int, required=True, choices=eval_pair_counts, metavar="N")
    add_common(p)
    add_work(p)
    p.set_defaults(func=cmd_transversal)

    p = sub.add_parser("eval", help="evaluate every coset on a Bell-diagonal state")
    p.add_argument("state", help="state JSON: {n, pairs: [[pI,pX,pY,pZ],..]} or {n, probs}")
    p.add_argument("--min-fidelity", type=float, default=None,
                   help="drop rows with F_out below this value")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.add_argument("--cache", help="ignored: eval reads its state file alone")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="optimised protocols vs concatenated baselines")
    p.add_argument("--n-min", type=int, default=2, choices=werner_pair_counts)
    p.add_argument("--n-max", type=int, default=5, choices=werner_pair_counts)
    p.add_argument("--metric", choices=list(_METRICS), default="fidelity")
    p.add_argument("--f-min", type=float, default=0.50)
    p.add_argument("--f-max", type=float, default=0.999)
    p.add_argument("--f-step", type=float, default=0.001)
    p.add_argument("--f-tar", type=float, default=F_TAR_DEFAULT)
    p.add_argument("--svg", default=None, help="also write an SVG line plot")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("circuit", help="synthesize a low-depth circuit for the best protocol")
    p.add_argument("--n", type=int, required=True, choices=werner_pair_counts)
    p.add_argument("--budget", type=_at_least(0), default=12_000_000,
                   help="candidates to draw, split evenly over the two-qubit gate counts; "
                        "the search stops after the first count with a match")
    add_common(p)
    add_work(p)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("verify", help="check a cache file: rerun the Werner enumeration and "
                                      "compare every record, or check a transversal header")
    p.add_argument("cache_file")
    p.add_argument("--sample", type=_at_least(1), help="ignored: every record is compared")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
