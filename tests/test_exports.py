"""Every name a ``toursub`` module lists in ``__all__`` must exist, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import toursub

MODULES = ["toursub"] + [
    info.name for info in pkgutil.walk_packages(toursub.__path__, "toursub.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_modules_found():
    assert {"toursub.complete_finder", "toursub.cli", "toursub._kernel.pure"} <= set(MODULES)
