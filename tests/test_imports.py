"""What each entry point loads: the package API resolves its names on first
use, and each CLI command imports only the modules it runs.

Every command starts a process of its own, so a module it loads but never
calls is start-up time spent for nothing.  Each case below runs one command in
a fresh interpreter and reads `sys.modules` when it returns.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import bicliff
from bicliff.cache import write_transversal_cache, write_werner_cache

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

# run the CLI on the arguments, then print the loaded module names as the last line
_RUN = (
    "import sys; from bicliff.cli import main; code = main(sys.argv[1:]); "
    "print(' '.join(sorted(sys.modules))); sys.exit(code)"
)


def _loaded(*code_and_args) -> set:
    res = subprocess.run(
        [sys.executable, "-c", *code_and_args], capture_output=True, text=True, env=ENV
    )
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def test_every_public_name_resolves_to_its_defining_module():
    for name in bicliff.__all__:
        module = importlib.import_module(f"bicliff.{bicliff._ORIGIN[name]}")
        value = getattr(bicliff, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert sorted(bicliff._ORIGIN) == sorted(bicliff.__all__)


def test_public_names_listed_and_star_importable():
    assert set(bicliff.__all__) <= set(dir(bicliff))
    namespace = {}
    exec("from bicliff import *", namespace)
    assert set(bicliff.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(bicliff, "no_such_name")
    assert not hasattr(bicliff, "no_such_name")


def test_import_loads_no_submodule():
    loaded = _loaded("import sys, bicliff; print(' '.join(sorted(sys.modules)))")
    assert {name for name in loaded if name.startswith("bicliff.")} == set()


def test_each_command_loads_only_what_it_runs(tmp_path, protocols_for, transversal_for):
    write_werner_cache(tmp_path / "werner_n3.bcp", 3, protocols_for(3))
    write_transversal_cache(tmp_path / "transversal_n2.bcp", transversal_for(2), seed=0)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "pairs": [[0.7, 0.1, 0.1, 0.1]] * 2}))
    out, cache = str(tmp_path / "out.csv"), str(tmp_path / "new")
    cases = [
        (["tables", "--n-max", "4"],
         {"werner", "transversal", "cache", "circuits", "dejmps"}, set()),
        (["werner", "--n", "3", "--cache", cache, "--out", out],
         {"transversal", "circuits"}, {"concurrent.futures.process"}),
        (["verify", str(tmp_path / "werner_n3.bcp")],
         {"transversal", "circuits"}, {"concurrent.futures.process"}),
        (["eval", str(state), "--cache", str(tmp_path), "--out", out],
         {"werner", "circuits", "dejmps"}, set()),
    ]
    for args, modules, others in cases:
        loaded = _loaded(_RUN, *args)
        unwanted = {f"bicliff.{name}" for name in modules} | others
        assert loaded & unwanted == set(), args
