"""The export lists match the code: each module's `__all__` names only what
it defines, and the package's public names are its modules' `__all__`."""

import importlib
import pkgutil

import pytest

import dnl

MODULES = sorted(info.name for info in pkgutil.iter_modules(dnl.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"dnl.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dnl.{name}.__all__ lists undefined names {missing}"


def test_package_imports_only_exported_names():
    # Importing each submodule binds it on the package, so its public names
    # are the submodules plus the union of their `__all__`.
    exported = set(MODULES)
    for name in MODULES:
        exported.update(getattr(importlib.import_module(f"dnl.{name}"), "__all__", ()))
    public = {n for n in vars(dnl) if not n.startswith("_")}
    assert public == exported, f"missing {sorted(exported - public)}, extra {sorted(public - exported)}"


def test_training_error_is_exported():
    # The error `train` documents is reachable from the package.
    assert dnl.TrainingError is dnl.training.TrainingError
