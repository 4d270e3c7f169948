"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import vpscatter

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(vpscatter.__path__))


def test_submodules_found():
    assert {"cli", "dispersion", "gevrey", "kinetic", "volterra"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_all_entry_resolves(name):
    # a stale entry breaks ``from vpscatter.<name> import *``
    module = importlib.import_module(f"vpscatter.{name}")
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []
