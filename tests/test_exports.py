"""Every name a module lists in ``__all__`` exists, and the package
exports each library module's public names.

A stale entry breaks ``from module import *`` and hides the name from
tools that walk ``__all__``.  Importing the package generates no classes:
its records are plain classes, not dataclasses.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neurofuzzy

MODULES = ["fuzzy", "anfis", "mlp", "metrics", "data", "model_io", "cli",
           "synthetic"]
# the modules ``neurofuzzy`` re-exports; ``errors`` lists no ``__all__``
LIBRARY = ["anfis", "data", "errors", "fuzzy", "metrics", "mlp", "model_io"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"neurofuzzy.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", LIBRARY)
def test_package_exports_module_names(name):
    module = importlib.import_module(f"neurofuzzy.{name}")
    public = getattr(module, "__all__",
                     [attr for attr in vars(module) if not attr.startswith("_")])
    unbound = [attr for attr in public
               if getattr(neurofuzzy, attr, None) is not getattr(module, attr)]
    assert unbound == []


def test_import_loads_no_dataclasses():
    code = "import sys, neurofuzzy.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(neurofuzzy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


@pytest.mark.parametrize("name", MODULES + ["errors"])
def test_no_class_is_a_dataclass(name):
    module = importlib.import_module(f"neurofuzzy.{name}")
    generated = [attr for attr, obj in vars(module).items()
                 if isinstance(obj, type) and obj.__module__ == module.__name__
                 and hasattr(obj, "__dataclass_fields__")]
    assert generated == []
