"""Every exported name resolves: no deleted member stays in an ``__all__``."""

import importlib

import pytest

SUBMODULES = ["bounds", "curvature", "exterior", "fields", "meshes", "reilly", "spectrum"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hodgebench.{name}")
    exported = module.__all__
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
