"""The benchmark imports names from the package root, and its traced run
patches public attributes of the package by name; each must still exist,
or the benchmark operation fails."""

import ast
import glob
import importlib
import importlib.util
import os
import sys

import pytest

import simplexmoments

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    # import only: nothing is written under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield importlib.import_module("worker")
    for name in ("worker", "gates", "spans"):
        sys.modules.pop(name, None)


def test_cli_targets_resolve(worker):
    targets = worker.cli_targets()
    assert targets
    for owner, attr, _span in targets:
        # Tracer.patched saves owner.__dict__[attr] and restores it
        assert attr in vars(owner), (owner, attr)
        assert callable(getattr(owner, attr)), (owner, attr)


def test_benchmark_imports_resolve_on_the_root():
    # parsed, not imported, so an API deletion that would break the frozen
    # benchmark fails here instead of in the benchmark run
    names = set()
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "simplexmoments":
                names.update(alias.name for alias in node.names)
    assert names
    for name in sorted(names):
        # a submodule (cli) is imported by the from-import itself
        assert hasattr(simplexmoments, name) or importlib.util.find_spec(
            "simplexmoments." + name
        ), name
