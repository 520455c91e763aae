"""The export lists match the code: each module's `__all__` names only what
it defines, and the package imports only exported names."""

import ast
import importlib
import pathlib
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
    tree = ast.parse(pathlib.Path(dnl.__file__).read_text(encoding="utf-8"))
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dnl.{node.module}")
        unexported = [a.name for a in node.names if a.name not in module.__all__]
        assert not unexported, f"dnl imports {unexported} outside dnl.{node.module}.__all__"


def test_training_error_is_exported():
    # The error `train` documents is reachable from the package.
    assert dnl.TrainingError is dnl.training.TrainingError
