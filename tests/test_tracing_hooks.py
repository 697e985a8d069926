"""The names perfbench/tracing.py patches exist in cmbproj, so a rename
fails here instead of breaking a traced benchmark run (``--trace 1``)."""

import ast
import importlib
import multiprocessing
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _constant(name):
    """The literal value assigned to ``name`` at module level."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACING}")


@pytest.mark.parametrize("layer", _constant("LAYERS"))
def test_layer_module_imports(layer):
    importlib.import_module(f"cmbproj.{layer}")


@pytest.mark.parametrize("layer,name", _constant("_WORKER_ENTRIES"))
def test_worker_entry_is_callable(layer, name):
    module = importlib.import_module(f"cmbproj.{layer}")
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize("layer", ["engine2d", "engine3d"])
def test_engine_imports_get_context(layer):
    module = importlib.import_module(f"cmbproj.{layer}")
    assert module.get_context is multiprocessing.get_context
