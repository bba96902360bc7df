"""Every exported name resolves: a deletion that leaves a name behind in
an ``__all__`` list fails here, not at a user's ``from ... import *``."""

import importlib
import pkgutil

import pytest

import ptbound

MODULES = ["ptbound"] + [
    f"ptbound.{info.name}" for info in pkgutil.iter_modules(ptbound.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

