"""What each entry point loads: the package API resolves its names on first
use, and each CLI command imports only the modules it runs.

Every command starts a process of its own, so a module it loads but never
calls is start-up time spent for nothing.  Each case below runs one command in
a fresh interpreter and reads `sys.modules` when it returns.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicliff
from bicliff.cache import write_transversal_cache, write_werner_cache

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

# run the CLI on the arguments, then print the loaded module names as the last
# line, also when argparse exits
_RUN = (
    "import atexit, sys; atexit.register(lambda: print(' '.join(sorted(sys.modules)))); "
    "from bicliff.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _loaded(*code_and_args, code: int = 0, cwd=None) -> set:
    res = subprocess.run(
        [sys.executable, "-c", *code_and_args], capture_output=True, text=True, env=ENV, cwd=cwd
    )
    assert res.returncode == code, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def test_every_public_name_resolves_to_its_defining_module():
    for name in bicliff.__all__:
        module = importlib.import_module(f"bicliff.{bicliff._ORIGIN[name]}")
        value = getattr(bicliff, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


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
        (["werner", "--n", "3", "--cache", cache, "--out", out],
         {"transversal", "circuits"}, {"concurrent.futures.process"}),
        (["verify", str(tmp_path / "werner_n3.bcp")],
         {"transversal", "circuits"}, {"concurrent.futures.process"}),
        (["verify", str(tmp_path / "transversal_n2.bcp")],  # the header alone
         {"transversal", "werner", "circuits"}, {"concurrent.futures.process"}),
        (["eval", str(state), "--cache", str(tmp_path), "--out", out],
         {"werner", "circuits", "dejmps"}, {"concurrent.futures.process"}),
        (["eval", str(state), "--cache", cache, "--out", out],  # no cache: enumerates the keys
         {"werner", "circuits", "dejmps"}, {"concurrent.futures.process"}),
        (["compare", "--n-min", "3", "--n-max", "3", "--cache", str(tmp_path), "--out", out],
         {"circuits", "transversal"}, set()),
    ]
    for args, modules, others in cases:
        loaded = _loaded(_RUN, *args)
        unwanted = {f"bicliff.{name}" for name in modules} | others
        assert loaded & unwanted == set(), args


@pytest.mark.parametrize(
    "args, code",
    [
        (["tables", "--n-max", "4"], 0),
        (["--help"], 0),
        (["werner", "--help"], 0),
        (["werner", "--n", "9"], 2),  # argparse
        (["compare", "--f-step", "0"], 2),  # CliError before any work
        (["eval", "x.json", "--min-fidelity", "2"], 2),
    ],
    ids=["tables", "help", "werner-help", "werner-bad-n", "compare-bad-step", "eval-bad-fidelity"],
)
def test_front_end_loads_no_numpy(tmp_path, args, code):
    # integer tables, help and argument errors need neither numpy nor the
    # GF(2) modules: only the CLI and the size limits and group orders
    loaded = _loaded(_RUN, *args, code=code, cwd=tmp_path)
    assert {name for name in loaded if name.startswith("bicliff")} == {
        "bicliff", "bicliff.cli", "bicliff.orders"
    }, args
    assert not {name for name in loaded if name.split(".")[0] == "numpy"}, args
    assert list(tmp_path.iterdir()) == [], args  # no cache directory was made


def test_scalar_oracle_shares_no_elimination_with_the_kernel():
    # the oracle of `transversal._complete` and `gf2.rref_rows` solves with an
    # elimination of its own, so a fault in `gf2.Echelon` cannot hide in both
    tree = ast.parse((Path(__file__).parent / "_scalar_reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name != "bicliff.gf2" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "bicliff":
            assert all(alias.name != "gf2" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "bicliff.gf2":
            for alias in node.names:
                assert alias.name not in ("Echelon", "*") and not alias.name.startswith("_"), alias.name


def test_scalar_oracle_shares_no_code_with_the_coset_enumerator():
    # `_scalar_reference.enumerated_coset_keys` is the oracle of
    # `transversal.enumerate_coset_keys`, so it must not call it
    tree = ast.parse((Path(__file__).parent / "_scalar_reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name != "bicliff.transversal" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "bicliff":
            assert all(alias.name != "transversal" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "bicliff.transversal":
            for alias in node.names:
                assert alias.name not in ("enumerate_coset_keys", "*"), alias.name
        elif isinstance(node, ast.Attribute):
            assert node.attr != "enumerate_coset_keys"


def test_scalar_oracle_shares_no_kernel_with_synthesis():
    # `_scalar_reference.synth_block` is the oracle of `circuits._synth_block`:
    # it builds, keys and matches each candidate with code of its own
    kernels = {"bicliff.circuits": {"_block_rows", "_matches", "_synth_block"},
               "bicliff.states": {"werner_keys"}}
    tree = ast.parse((Path(__file__).parent / "_scalar_reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in kernels:
            for alias in node.names:
                assert alias.name not in kernels[node.module] | {"*"}, alias.name
        elif isinstance(node, ast.Attribute):
            assert node.attr not in set().union(*kernels.values()), node.attr


def test_scalar_oracle_shares_no_case_tables_with_werner():
    # `_scalar_reference.ab_pairs_by_top_bit` and `byte_table_mask_map` are
    # derivations that check the definitions in `werner`, so the oracle must
    # not take the pair order or the relabelling from there
    tables = {"ab_pairs", "_permuted_mask_map"}
    tree = ast.parse((Path(__file__).parent / "_scalar_reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "bicliff.werner":
            for alias in node.names:
                assert alias.name not in tables | {"*"}, alias.name
        elif isinstance(node, ast.Attribute):
            assert node.attr not in tables, node.attr
