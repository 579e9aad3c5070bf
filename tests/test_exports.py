"""Every name a module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import ritesolver

MODULES = ["ritesolver"] + [
    f"ritesolver.{info.name}" for info in pkgutil.iter_modules(ritesolver.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
