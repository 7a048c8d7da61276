"""Every name a module lists in ``__all__`` exists.

A stale entry breaks ``from module import *`` and hides the name from
tools that walk ``__all__``.
"""

import importlib

import pytest

MODULES = ["fuzzy", "anfis", "mlp", "metrics", "data", "model_io", "cli",
           "synthetic"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"neurofuzzy.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
