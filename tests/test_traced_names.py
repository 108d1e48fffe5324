"""The benchmark's per-layer tracer looks its functions up by name; each must resolve."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, imported read-only with perfbench on sys.path."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_every_traced_name_resolves(tracing):
    resolved = []
    for module_name, quals in tracing.LAYERS.values():
        module = importlib.import_module(module_name)
        for qual in quals:
            owner, _, attr = qual.rpartition(".")
            scope = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(scope.get(attr)), f"{module_name}.{qual} does not resolve"
            resolved.append(f"{module_name}.{qual}")
    assert len(resolved) == 25
