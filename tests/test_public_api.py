"""Every name a package exports resolves, so a deletion cannot leave a
stale entry in ``__all__`` behind."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["vialbench", "vialbench.perception"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
