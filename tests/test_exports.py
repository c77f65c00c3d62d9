"""Every name an efsim module exports through ``__all__`` resolves, so a
deleted function cannot leave its export behind."""

import importlib
import pkgutil

import pytest

import efsim

MODULES = ["efsim", *(m.name for m in pkgutil.walk_packages(efsim.__path__, "efsim."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
