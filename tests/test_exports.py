"""Every name a sigmak module exports through __all__ exists, so a star
import of any module works and its __all__ does not outlive a deleted or
renamed function."""

import importlib
import pkgutil

import pytest

import sigmak

MODULES = ["sigmak"] + sorted(
    f"sigmak.{info.name}" for info in pkgutil.iter_modules(sigmak.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
