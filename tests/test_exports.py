"""Every exported name resolves, so removed API cannot linger in __all__,
and importing the package loads no scipy."""

import importlib
import os
import subprocess
import sys

import pytest

import resultant_lab

MODULES = ["basis", "multipoly", "matpoly", "cayley", "sylvester",
           "rootfinder"]


@pytest.mark.parametrize("module", [""] + MODULES)
def test_all_names_resolve(module):
    name = "resultant_lab" + (f".{module}" if module else "")
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def test_package_reexports_every_module_name():
    for module in MODULES:
        mod = importlib.import_module(f"resultant_lab.{module}")
        assert set(mod.__all__) <= set(resultant_lab.__all__), module


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; the library runs on numpy alone
    src = os.path.dirname(os.path.dirname(resultant_lab.__file__))
    code = ("import sys, resultant_lab, resultant_lab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
