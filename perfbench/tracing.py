"""Span recording around calls into the cmbproj layers.

The program is not instrumented.  While a ``Tracer`` is installed, every
public module-level function of the layer modules is replaced, in every
cmbproj namespace that holds it, by a wrapper that records a span
(layer, function, start, end, parent).  Two further hooks cover work the
engines hand to forked worker processes:

* the engines' ``get_context`` is replaced by a proxy whose ``Pool`` is
  timed as one ``scheduler.pool`` span (fork, wait and tear-down);
* the pool entry points ``engine2d._cells_chunk`` and
  ``engine3d._sweep_chunk`` record a root span inside the worker and write
  the worker's spans to a file, which the parent collects after the op.

Spans live in memory and are analysed when the op ends.  Self time is a
span's duration minus the time covered by its child spans; within one
process child spans never overlap, so the self times of a tree sum to the
duration of its root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing
import os
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "basis", "quadrature", "engine2d", "engine3d",
          "scheduler", "harness", "cli")

# pool entry points: private, but the unit of work a forked worker runs
_WORKER_ENTRIES = (("engine2d", "_cells_chunk"), ("engine3d", "_sweep_chunk"))


class Tracer:
    """In-memory span recorder.  ``spans`` rows are
    [id, parent_id, layer, name, t0, t1]."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def open(self, layer: str, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, layer, name, time.perf_counter(),
                           None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError("span stack out of order")

    def take(self) -> list[list]:
        spans, self.spans, self.stack = self.spans, [], []
        return spans

    # -- installation ---------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
        return traced

    def _wrap_worker_entry(self, fn, layer: str):
        tracer = self
        traced = self._wrap(fn, layer, "chunk")

        @functools.wraps(fn)
        def traced_chunk(args):
            if not tracer.active:
                return fn(args)
            if os.getpid() == tracer.pid:       # ran in-process (1 worker)
                return traced(args)
            # forked mid-op: drop the parent's open spans, start a new tree
            tracer.spans, tracer.stack = [], []
            sid = tracer.open(layer, "chunk")
            try:
                return fn(args)
            finally:
                tracer.close(sid)
                path = os.path.join(
                    tracer.worker_dir,
                    f"w{os.getpid()}-{time.perf_counter_ns()}.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(tracer.take(), f)
        return traced_chunk

    def install(self) -> None:
        """Replace the layer functions in every cmbproj namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"cmbproj.{layer}")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None
                      and (n == "cmbproj" or n.startswith("cmbproj."))]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"cmbproj.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = self._wrap(obj, layer, name)
        for layer, name in _WORKER_ENTRIES:
            obj = getattr(sys.modules[f"cmbproj.{layer}"], name)
            replace[id(obj)] = self._wrap_worker_entry(obj, layer)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, wrapper)
        for layer in ("engine2d", "engine3d"):
            ns = sys.modules[f"cmbproj.{layer}"]
            self._saved.append((ns, "get_context", ns.get_context))
            ns.get_context = functools.partial(_TracedContext, self)

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._saved):
            setattr(ns, name, obj)
        self._saved = []


class _TracedContext:
    """Stand-in for ``multiprocessing.get_context(method)`` whose pools
    are timed as ``scheduler.pool`` spans."""

    def __init__(self, tracer: Tracer, method=None):
        self._tracer = tracer
        self._ctx = multiprocessing.get_context(method)

    def Pool(self, *args, **kwargs):
        if not self._tracer.active:
            return self._ctx.Pool(*args, **kwargs)
        sid = self._tracer.open("scheduler", "pool")
        try:
            pool = self._ctx.Pool(*args, **kwargs)
        except BaseException:
            self._tracer.close(sid)
            raise
        return _TracedPool(self._tracer, pool, sid)


class _TracedPool:
    def __init__(self, tracer: Tracer, pool, sid: int):
        self._tracer, self._pool, self._sid = tracer, pool, sid

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.close(self._sid)

    def __getattr__(self, name):
        return getattr(self._pool, name)


def collect_worker_spans(worker_dir: str) -> list[list[list]]:
    """Read and delete the span files written by pool workers."""
    trees = []
    for entry in sorted(os.listdir(worker_dir)):
        path = os.path.join(worker_dir, entry)
        with open(path, "r", encoding="utf-8") as f:
            trees.append(json.load(f))
        os.remove(path)
    return trees


def graft(spans: list[list], child: list[list], parent_id: int) -> None:
    """Append another process's span tree under ``parent_id``."""
    base = len(spans)
    for sid, parent, layer, name, t0, t1 in child:
        spans.append([base + sid,
                      parent_id if parent is None else base + parent,
                      layer, name, t0, t1])


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time of one process's span tree."""
    covered = defaultdict(float)
    for _, parent, _, _, t0, t1 in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    out = defaultdict(float)
    for sid, _, layer, _, t0, t1 in spans:
        out[layer] += (t1 - t0) - covered[sid]
    return out


def outermost(spans: list[list], layer: str, names: set[str]):
    """(total seconds, count) of spans named ``layer.name`` for a name in
    ``names`` that have no such ancestor."""
    by_id = {s[0]: s for s in spans}

    def hit(s):
        return s[2] == layer and s[3] in names

    total, count = 0.0, 0
    for s in spans:
        if not hit(s):
            continue
        p = s[1]
        while p is not None and not hit(by_id[p]):
            p = by_id[p][1]
        if p is None:
            total += s[5] - s[4]
            count += 1
    return total, count
