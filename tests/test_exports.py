"""Every exported name resolves: the package's __all__ and each
submodule's."""

import importlib
import pkgutil

import pytest

import cvtalloc

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cvtalloc.__path__))


def test_package_exports_resolve():
    missing = [name for name in cvtalloc.__all__
               if not hasattr(cvtalloc, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"cvtalloc.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
