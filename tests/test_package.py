import importlib
import pkgutil

import pytest

import nsfk

MODULES = sorted(info.name for info in pkgutil.iter_modules(nsfk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from nsfk.<module> import *`
    module = importlib.import_module(f"nsfk.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
