"""The package's public surface."""

import importlib
import pkgutil

import pytest

import pricelab

# every module but the ``python -m pricelab`` entry point declares its surface
MODULES = ["pricelab"] + [
    f"pricelab.{info.name}" for info in pkgutil.iter_modules(pricelab.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
