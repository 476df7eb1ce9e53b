"""Public names: every exported or re-exported name must resolve."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import congested_flow

MODULES = sorted(m.name for m in pkgutil.iter_modules(congested_flow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"congested_flow.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(congested_flow.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, attr in imported:
        source = importlib.import_module(f"congested_flow.{module}")
        assert hasattr(source, attr), f"{module}.{attr}"
        assert hasattr(congested_flow, attr)
