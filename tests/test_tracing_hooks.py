"""The names perfbench/tracing.py patches, the spans perfbench/run.py
reads and the calls perfbench/workloads.py and the demos make exist in
cmbproj, so a rename or a removed keyword fails here instead of breaking
a benchmark or demo run or turning a per-layer metric to 0."""

import ast
import importlib
import importlib.util
import inspect
import json
import multiprocessing
from pathlib import Path

import pytest

import cmbproj

PERFBENCH = Path(__file__).parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"
RUN = PERFBENCH / "run.py"
DEMOS = sorted((PERFBENCH.parent / "demos").glob("*.py"))


def _constant(name, path=TRACING):
    """The literal value assigned to ``name`` at module level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path}")


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
    """name -> call nodes of every ``cp.<name>(...)`` in workloads.py and
    the demo scripts."""
    calls = {}
    for path in (WORKLOADS, *DEMOS):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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


def _config_reads():
    """Every attribute and method workloads.py reads on a ``cfg``, a
    ``RunConfig``."""
    return sorted({node.attr for node in ast.walk(ast.parse(
                       WORKLOADS.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "cfg"})


CONFIG_READS = _config_reads()


def test_config_reads_found():
    # a renamed variable would leave the check below with nothing to test
    assert {"l_max", "resolved_mu_points"} <= set(CONFIG_READS)


@pytest.mark.parametrize("name", CONFIG_READS)
def test_workload_config_reads_resolve(name):
    # only --trace 1 runs and first-request checks reach these reads
    value = getattr(cmbproj.RunConfig().validate(), name)
    if callable(value):
        value()


def _opened_spans():
    """(layer, name) of every ``tracer.open("layer", "name")`` in
    workloads.py: spans the benchmark opens itself."""
    spans = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "open"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer"):
            spans.add(tuple(ast.literal_eval(a) for a in node.args))
    return spans


SPAN_TIMES = _constant("SPAN_TIMES", RUN)
OPENED_SPANS = _opened_spans()


@pytest.mark.parametrize("metric", sorted(SPAN_TIMES))
def test_span_metric_names_are_traced(metric):
    # the tracer records spans only for public plain functions defined in
    # a layer module; any other name would leave the metric at 0
    layer, names = SPAN_TIMES[metric]
    module = importlib.import_module(f"cmbproj.{layer}")
    for name in names:
        obj = getattr(module, name, None)
        traced = (not name.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == module.__name__)
        assert traced or (layer, name) in OPENED_SPANS, f"{layer}.{name}"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("mode", ["gosper", "exact"])
def test_engine_h2_calls_are_traced(desk, tmp_path, mode):
    # the direct engine's h^2 time must be booked to geometry.h2_s
    tracer = _tracer_class()(str(tmp_path))
    tracer.install()
    try:
        tracer.active = True
        cmbproj.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                               h2_mode=mode, workers=1)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert ("geometry", f"h2_{mode}") in {(s[2], s[3]) for s in tracer.spans}


def _run_gamma3d(desk):
    cmbproj.gamma3d_matrix(desk.tables, desk.mapping, desk.grid, workers=2)


def _run_gamma2d(desk):
    cmbproj.gamma2d_matrix(desk.tables, desk.mapping, desk.grid, desk.rule,
                           desk.legendre, workers=2)


@pytest.mark.parametrize("layer,run", [("engine3d", _run_gamma3d),
                                       ("engine2d", _run_gamma2d)])
def test_pool_and_worker_spans_are_traced(desk, tmp_path, layer, run):
    # the benchmark's scheduler.worker_busy_s and per-layer busy times come
    # from the pool span and the span files the forked workers write
    tracer = _tracer_class()(str(tmp_path))
    tracer.install()
    try:
        tracer.active = True
        run(desk)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert ("scheduler", "pool") in {(s[2], s[3]) for s in tracer.spans}
    trees = [json.loads(path.read_text(encoding="utf-8"))
             for path in sorted(tmp_path.iterdir())]
    assert len(trees) == 2
    for tree in trees:
        roots = [s for s in tree if s[1] is None]
        assert [(s[2], s[3]) for s in roots] == [(layer, "chunk")]
