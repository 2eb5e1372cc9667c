"""Every exported name resolves, and so does every name the benchmark's
tracer wraps: perfbench/tracing.py rebinds cfpde functions by module
attribute, so a deleted or renamed one would break the benchmark run."""

import functools
import importlib
import pathlib
import pkgutil
import runpy

import pytest

import cfpde

MODULES = sorted(m.name for m in pkgutil.iter_modules(cfpde.__path__))
TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module", ["", *MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"cfpde.{module}" if module else "cfpde")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_traced_names_resolve():
    # run_path compiles the file in memory: no bytecode is written next to
    # it, and the __main__ block does not run
    wrapped = runpy.run_path(str(TRACING), run_name="tracing")["WRAPPED"]
    pairs = [pair for targets in wrapped.values() for pair in targets]
    missing = [(owner, attr) for owner, attr in pairs
               if not hasattr(functools.reduce(getattr, owner.split("."), cfpde), attr)]
    assert missing == []
