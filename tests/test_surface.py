"""The public surface: every exported name resolves, so no export is stale."""

import ast
import importlib
from pathlib import Path

import pytest

import emlab

PACKAGE = Path(emlab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"emlab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_every_package_import_resolves():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [(node.module, alias.asname or alias.name)
               for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(emlab, name), name
        if module is not None:  # from .spectral import Field: the module's own object
            assert getattr(emlab, name) is getattr(importlib.import_module(f"emlab.{module}"), name)
