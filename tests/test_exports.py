import importlib
import pkgutil

import pytest

import mmscatter

MODULES = ["mmscatter"] + sorted(m.name for m in pkgutil.iter_modules(mmscatter.__path__, "mmscatter."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
