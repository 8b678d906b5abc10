"""Every exported name resolves, so removed API cannot linger in __all__."""

import importlib

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
