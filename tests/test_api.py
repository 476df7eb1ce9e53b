"""Public names: every exported or re-exported name must resolve."""

import ast
import importlib
import pkgutil
import re
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


SOURCES = sorted(Path(congested_flow.__file__).parent.glob("*.py"))


def test_tolerances_live_in_one_table():
    # every float literal below 1e-6 is a tolerance or a time clearance; the
    # table gives each a name, a scale and a reason
    stray = [(p.name, node.lineno) for p in SOURCES if p.name != "tolerances.py"
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             and 0.0 < abs(node.value) < 1e-6]
    assert stray == []


def test_no_tolerance_knobs():
    # a check decides with the table's values, so no parameter looks like a
    # tolerance, whatever its name, except: the contraction test's tol, which
    # acceptance criterion 8 sets; a certificate's passes(tol), whose callers
    # state the bound each certificate meets; and the tolerance a report
    # records, which decides nothing
    knobs = [(p.name, node.name, a.arg) for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
             if re.search(r"tol|bound|eps", a.arg, re.IGNORECASE)]
    assert sorted(knobs) == [("cone.py", "passes", "tol"),
                             ("scenarios.py", "first_order_contraction_test", "tol"),
                             ("verification.py", "_worst", "tolerance")]


def test_no_module_reads_a_merge_event_view():
    # the pipeline reads the timeline's columns; the MergeEvent views are
    # for the tests and the benchmark's tracer.  An attribute read of a view
    # is allowed only inside the MergeEvent class itself
    views = {"events", "jump_values", "merged_blocks", "index_range"}
    reads = []
    for p in SOURCES:
        tree = ast.parse(p.read_text())
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "MergeEvent"
                  for node in ast.walk(cls)}
        reads += [(p.name, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in views
                  and id(node) not in inside]
    assert reads == []
