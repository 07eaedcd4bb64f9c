"""Every name the benchmark's tracer wraps must exist where it looks it up.

`perfbench/spans.py` replaces functions by name in the modules that call
them.  A cleanup that drops such a name (an import kept only for the tracer,
say) would break the traced run; this test fails first.  The reverse holds
too: an import kept only for the tracer, or a stand-in that `cli` keeps as a
global so that the tracer can wrap it, must name a probe, so none is left
behind once its probe goes.  The tracer file is read, never imported from
or written to.
"""

import ast
import importlib
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _spans_module():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_probe_resolves():
    spans = _spans_module()
    missing = [
        f"{module_name}.{attr}"
        for module_name, names in spans.PROBES.items()
        for attr in names
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_every_unused_import_is_a_probe():
    # the reverse check: an import marked unused, or a deferred stand-in in
    # cli, must be one the tracer looks up in that module, so none outlives
    # the probe it was kept for
    probes = _spans_module().PROBES
    stray = []
    for path in sorted((ROOT / "src" / "bicliff").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        module_name = "bicliff" if path.stem == "__init__" else f"bicliff.{path.stem}"
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in probes.get(module_name, ()):
                    stray.append(f"{module_name}.{name}")
    cli = importlib.import_module("bicliff.cli")
    stand_in = cli._deferred("orders", "sp_order").__code__
    stand_ins = [name for name, value in vars(cli).items()
                 if getattr(value, "__code__", None) is stand_in]
    assert stand_ins  # the scan recognises them
    stray += [f"bicliff.cli.{name}" for name in stand_ins if name not in probes["bicliff.cli"]]
    assert stray == []


def test_pool_probe_resolves():
    module_name, attr, _ = _spans_module().POOL_PROBE
    assert isinstance(getattr(importlib.import_module(module_name), attr, None), type)


def test_cache_counters_read_real_calls(tmp_path, protocols_for, transversal_for):
    # each cache span's counter must accept the positional args and the
    # result of a real call, as the traced run hands them over
    from bicliff import cache

    spans = _spans_module()
    werner, transversal = tmp_path / "werner_n3.bcp", tmp_path / "transversal_n2.bcp"
    cache.write_werner_cache(werner, 3, protocols_for(3))
    cache.write_transversal_cache(transversal, transversal_for(2), seed=0)
    header, records = cache.read_cache(werner)
    calls = {
        "cache.write_cache": (tmp_path / "copy.bcp", header, records),
        "cache.load_werner_cache": (werner,),
        "cache.load_transversal_cache": (transversal,),
        "cache.verify_cache": (werner,),
    }
    expected = {
        "cache.write_cache": {"cache.write_bytes": werner.stat().st_size},
        "cache.load_werner_cache": {"cache.load_records": 5},
        "cache.load_transversal_cache": {"cache.load_records": 15},
        "cache.verify_cache": {"cache.verify_records": 5},
    }
    assert sorted(label for label in spans.COUNTS if label.startswith("cache.")) == sorted(calls)
    for label, args in calls.items():
        result = getattr(cache, label.split(".", 1)[1])(*args)
        assert spans.COUNTS[label](args, result) == expected[label], label


def test_werner_counters_read_real_calls():
    # the werner counters take the length of what the wrapped call returns:
    # every case's key row, and the list of distinct protocols
    from bicliff.werner import all_case_keys, distinct_protocols

    spans = _spans_module()
    assert spans.COUNTS["werner.all_case_keys"]((4,), all_case_keys(4)) == {"werner.cases": 60}
    assert spans.COUNTS["cli.distinct_protocols"]((4,), distinct_protocols(4)) == {
        "werner.distinct": 13
    }
