"""Every exported name resolves, so no deletion leaves a stale export."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["fusemine", "fusemine.learners"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
