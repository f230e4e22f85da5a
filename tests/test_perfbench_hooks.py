"""The traced benchmark run patches public attributes of the package by
name; each must still exist, or the traced operation fails."""

import importlib
import os
import sys

import pytest

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
