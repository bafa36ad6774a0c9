"""Every name a module of the package exports must exist."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import avgsa

MODULES = ["avgsa"] + [
    info.name for info in pkgutil.walk_packages(avgsa.__path__, prefix="avgsa.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
