"""The names perfbench/tracing.py patches and the calls
perfbench/workloads.py makes exist in cmbproj, so a rename or a removed
keyword fails here instead of breaking a benchmark run."""

import ast
import importlib
import inspect
import multiprocessing
from pathlib import Path

import pytest

import cmbproj

PERFBENCH = Path(__file__).parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


@pytest.mark.parametrize("layer,name", _constant("_WORKER_ENTRIES"))
def test_worker_entry_takes_one_positional(layer, name):
    # the tracer's wrapper calls the entry point as fn(args)
    module = importlib.import_module(f"cmbproj.{layer}")
    params = list(inspect.signature(getattr(module, name)).parameters.values())
    assert [p.kind for p in params] in (
        [inspect.Parameter.POSITIONAL_ONLY],
        [inspect.Parameter.POSITIONAL_OR_KEYWORD])


@pytest.mark.parametrize("layer", _constant("LAYERS"))
def test_public_callables_are_plain_functions(layer):
    # the tracer wraps only inspect.isfunction objects: a public name
    # behind a cache decorator would drop out of the trace and its span
    # metrics would read 0
    module = importlib.import_module(f"cmbproj.{layer}")
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), f"{layer}.{name}"


@pytest.mark.parametrize("layer", ["engine2d", "engine3d"])
def test_engine_imports_get_context(layer):
    module = importlib.import_module(f"cmbproj.{layer}")
    assert module.get_context is multiprocessing.get_context


def _cp_calls():
    """name -> call nodes of every ``cp.<name>(...)`` in workloads.py."""
    calls = {}
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "cp"):
            calls.setdefault(node.func.attr, []).append(node)
    return calls


CP_CALLS = _cp_calls()


@pytest.mark.parametrize("name", sorted(CP_CALLS))
def test_workload_calls_fit_signature(name):
    assert hasattr(cmbproj, name), f"cmbproj.{name} is gone"
    signature = inspect.signature(getattr(cmbproj, name))
    for call in CP_CALLS[name]:
        args = [None] * sum(not isinstance(a, ast.Starred)
                            for a in call.args)
        kwargs = dict.fromkeys(k.arg for k in call.keywords if k.arg)
        # TypeError for an unknown keyword or too many positional args
        signature.bind_partial(*args, **kwargs)
