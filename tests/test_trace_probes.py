"""Every name the benchmark's tracer wraps must exist where it looks it up.

`perfbench/spans.py` replaces functions by name in the modules that call
them.  A cleanup that drops such a name (an import kept only for the tracer,
say) would break the traced run; this test fails first.  The tracer file is
read, never imported from or written to.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_pool_probe_resolves():
    module_name, attr, _ = _spans_module().POOL_PROBE
    assert isinstance(getattr(importlib.import_module(module_name), attr, None), type)
