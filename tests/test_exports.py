"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import aprid

MODULES = ["aprid"] + [f"aprid.{m.name}" for m in pkgutil.iter_modules(aprid.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, missing
