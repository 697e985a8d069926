"""cmbproj benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the source tree next to this directory (``src/``),
prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

A run is: set-up (fresh-interpreter import plus input generation, done
SETUPS times, then one warm-up op), a closed measured loop of seeded ops
for about S seconds, and verification of every op outside the timed
region.  The traced run runs every request twice, untraced and traced
(the trace overhead is the difference of their median latencies), and,
on direct-parallel, adds BASELINE_OPS single-worker ops for the
parallel efficiency.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

from tracing import (Tracer, collect_worker_spans, outermost,
                     self_times)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUPS = 3
BASELINE_OPS = 2
TRACED_BUDGET = 1.5
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "latency_s_p50": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_SELF = ("geometry", "basis", "quadrature", "engine2d", "engine3d",
              "scheduler", "harness", "cli", "bench")

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "engine2d.build_ptable_s": "s", "engine2d.sweep_s": "s",
    "engine2d.cells_per_s": "1/s", "engine2d.ptable_bytes": "bytes",
    "engine3d.sweep_s": "s", "engine3d.triples_per_s": "1/s",
    "engine3d.bytes_computed": "bytes", "engine3d.ops_computed": "count",
    "engine3d.ops_per_byte": "ratio",
    "scheduler.worker_busy_s": "s", "scheduler.parallel_efficiency": "ratio",
    "quadrature.integration_weights_s": "s",
    "quadrature.integration_weights_calls": "count",
    "quadrature.gauss_legendre_s": "s", "quadrature.legendre_table_s": "s",
    "geometry.enumerate_domain_s": "s", "geometry.h2_s": "s",
    "geometry.domain_triples": "count",
    "basis.build_s": "s", "basis.table_bytes": "bytes",
    "harness.run_gamma_s": "s", "harness.serialize_s": "s",
    "harness.deserialize_s": "s", "harness.bytes_written": "bytes",
    "cli.import_s": "s", "cli.process_s": "s",
    "trace.accounted_frac": "ratio", "trace_overhead_frac": "ratio",
}

# per-layer metrics that are inclusive times of named spans:
# metric -> (layer, span names)
SPAN_TIMES = {
    "engine2d.build_ptable_s": ("engine2d", {"build_ptable"}),
    "quadrature.integration_weights_s": ("quadrature",
                                         {"integration_weights"}),
    "quadrature.gauss_legendre_s": ("quadrature", {"gauss_legendre"}),
    "quadrature.legendre_table_s": ("quadrature", {"legendre_table"}),
    "geometry.enumerate_domain_s": ("geometry", {"enumerate_domain"}),
    "geometry.h2_s": ("geometry", {"h2_exact", "h2_gosper",
                                   "geometric_prefactor"}),
    "harness.run_gamma_s": ("harness", {"run_gamma"}),
    "harness.serialize_s": ("harness", {"serialize_gamma"}),
    "harness.deserialize_s": ("harness", {"deserialize_gamma"}),
    "cli.process_s": ("cli", {"process"}),
}


def child_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({k: BLAS_THREADS for k in BLAS_ENV})
    return env


def fresh_import_seconds(env: dict) -> float:
    """Wall time of a bare interpreter start plus ``import cmbproj``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cmbproj"], env=env,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def environment_record(wl) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "workers": wl.workers, "machine": platform.machine()}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class LayerAccumulator:
    """Sums the per-layer figures of the traced ops."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.ops = 0

    def add(self, spans, worker_trees, work):
        trees = [spans] + worker_trees
        own = self_times(spans)
        busy = defaultdict(float, own)
        for tree in worker_trees:
            for layer, sec in self_times(tree).items():
                busy[layer] += sec
            self.sums["scheduler.worker_busy_s"] += sum(
                s[5] - s[4] for s in tree if s[1] is None)
        for layer in LAYER_SELF:
            self.sums[f"{layer}.self_s"] += own[layer]
        root = next(s for s in spans if s[1] is None)
        self.sums["op_s"] += root[5] - root[4]
        spans_s = defaultdict(float)
        for metric, (layer, names) in SPAN_TIMES.items():
            for tree in trees:
                sec, calls = outermost(tree, layer, names)
                spans_s[metric] += sec
                if metric == "quadrature.integration_weights_s":
                    self.sums["quadrature.integration_weights_calls"] += calls
        for metric, sec in spans_s.items():
            self.sums[metric] += sec
        ptable = spans_s["engine2d.build_ptable_s"]
        sweep = {"cells": busy["engine2d"] - ptable,
                 "triples": busy["engine3d"]}
        self.sums["engine2d.sweep_s"] += sweep["cells"]
        self.sums["engine3d.sweep_s"] += sweep["triples"]
        self.sums["basis.build_s"] += busy["basis"]
        for key, count in work.items():
            if count:
                self.sums[key] += count
                self.sums[f"{key}_s"] += sweep[key]
        self.ops += 1

    def metrics(self) -> dict:
        s, n = self.sums, max(self.ops, 1)
        out = {k: s[k] / n for k in PER_LAYER_UNITS if k in s
               and not k.endswith("_per_s")}
        out["engine2d.cells_per_s"] = _rate(s["cells"], s["cells_s"])
        out["engine3d.triples_per_s"] = _rate(s["triples"], s["triples_s"])
        layers = sum(s[f"{layer}.self_s"] for layer in LAYER_SELF
                     if layer != "bench")
        out["trace.accounted_frac"] = _rate(layers, s["op_s"])
        return out


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def run_op(wl, req, tracer, accumulator, **kwargs):
    """One op; returns (result, error text, seconds)."""
    if tracer is not None:
        tracer.install()
        tracer.active = True
        root = tracer.open("bench", "op")
    t0 = time.perf_counter()
    try:
        result, error = wl.run(req, tracer, **kwargs), None
    except Exception:                       # counted as a failed op
        result, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.active = False
        tracer.uninstall()
        spans = tracer.take()
        workers = collect_worker_spans(tracer.worker_dir)
        if error is None:
            accumulator.add(spans, workers, wl.work(req))
    return result, error, seconds


def measure(wl, seconds: float, trace: bool, workdir: str):
    tracer = None
    if trace:
        os.makedirs(os.path.join(workdir, "spans"), exist_ok=True)
        tracer = Tracer(os.path.join(workdir, "spans"))
    acc = LayerAccumulator()
    records = []
    start = time.perf_counter()
    # a traced run runs every request untraced and traced, in alternating
    # order, so the two sets of ops have the same inputs; the pairs get
    # TRACED_BUDGET times ``seconds``
    budget = seconds * (TRACED_BUDGET if trace else 1)
    for k, req in enumerate(wl.requests()):
        # stop on a cycle boundary once the next cycle, at the pace so
        # far, would end after the budget
        if k and k % wl.stride == 0 and \
                (time.perf_counter() - start) * (k + wl.stride) / k > budget:
            break
        modes = ((False, True) if k % 2 == 0 else (True, False)) \
            if trace else (False,)
        for traced in modes:
            result, error, sec = run_op(wl, req, tracer if traced else None,
                                        acc)
            records.append((req, result, error, sec, traced))
    extra = {}
    if trace and wl.workers > 1:
        # single-worker baseline of the parallel workload, untraced
        baseline = []
        for req, _ in zip(wl.requests(), range(BASELINE_OPS)):
            result, error, sec = run_op(wl, req, None, acc, workers=1)
            records.append((req, result, error, sec, None))
            baseline.append(sec)
        extra["t_w1"] = statistics.median(baseline)
    return records, acc, extra


def verify(wl, records) -> list[str | None]:
    """Failure text of every record, None where the op is correct."""
    failures = []
    for req, result, error, _, _ in records:
        if error is None:
            try:
                wl.verify(req, result)
            except Exception as exc:        # any verification error fails
                error = f"{type(exc).__name__}: {exc}"
        failures.append(None if error is None
                        else error.strip().splitlines()[-1])
    return failures


def quantile(values, q):
    import numpy
    return float(numpy.percentile(values, 100 * q)) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cmbproj", "__init__.py")):
        print(f"error: no cmbproj sources under {SRC}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import cmbproj
    if not os.path.abspath(cmbproj.__file__).startswith(SRC + os.sep):
        print(f"error: imported cmbproj from {cmbproj.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run_workload(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def run_workload(cls, args, workdir) -> int:
    env = child_environment()
    wl = cls(args.seed, workdir, env)
    setups, imports = [], []
    for _ in range(SETUPS):
        imports.append(fresh_import_seconds(env))
        t0 = time.perf_counter()
        wl.build()
        setups.append(imports[-1] + time.perf_counter() - t0)
    warm = wl.warmup()
    warm_result, warm_error, warm_s = run_op(wl, warm, None, None)
    setup_s = statistics.median(setups) + warm_s

    records, acc, extra = measure(wl, args.seconds, bool(args.trace),
                                  workdir)
    records.insert(0, (warm, warm_result, warm_error, warm_s, None))
    failures = verify(wl, records)
    failed = sum(f is not None for f in failures)
    attempted = len(records)
    measured = records[1:]
    # end-to-end figures come from the untraced measured ops
    untraced = [(r, f) for r, f in zip(measured, failures[1:])
                if r[4] is False]
    ok_lat = [r[3] for r, _ in untraced if r[2] is None]

    print(f"# perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment_record(wl), sort_keys=True))
    for i, line in enumerate(failures):
        if line is not None:
            print(f"# FAILED op {i}: {line}")

    keys = [r[0].key for r, _ in untraced if hasattr(r[0], "key")]
    print(f"# repeat_share={_repeat_share(keys):.4g} latency_s quartiles="
          f"{[round(quantile(ok_lat, q), 6) for q in (0, .25, .5, .75, 1)]}")
    if not args.trace:
        p90 = quantile(ok_lat, 0.9)
        verified = sum(f is None for _, f in untraced)
        metrics = {
            "throughput_ops_s": _rate(verified,
                                      sum(r[3] for r, _ in untraced)),
            "latency_s_p50": quantile(ok_lat, 0.5),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        # too few samples lie beyond p90 outside request-mix for it to be
        # a steady metric; it is printed, not reported
        print(f"# ops={len(ok_lat)} latency_s_p90={p90:.6g} "
              f"beyond_p90={sum(x > p90 for x in ok_lat)}"
              f" failed_frac={failed / attempted:.6g} ({failed}/{attempted})")
    else:
        traced = [r[3] for r in measured if r[4] is True and r[2] is None]
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        metrics.update(acc.metrics())
        metrics.update(wl.counts())
        metrics["engine3d.ops_per_byte"] = _rate(
            metrics["engine3d.ops_computed"],
            metrics["engine3d.bytes_computed"])
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["harness.bytes_written"] = statistics.fmean(
            wl.written(r[0], r[1]) for r in measured if r[2] is None) \
            if measured else 0.0
        untraced_p50 = quantile(ok_lat, 0.5)
        metrics["trace_overhead_frac"] = _rate(
            quantile(traced, 0.5) - untraced_p50, untraced_p50)
        if "t_w1" in extra:
            metrics["scheduler.parallel_efficiency"] = _rate(
                extra["t_w1"], wl.workers * untraced_p50)
        units = PER_LAYER_UNITS
        print(f"# traced_ops={len(traced)} untraced_ops={len(ok_lat)} "
              f"failed_frac={failed / attempted:.6g} ({failed}/{attempted})")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def _repeat_share(keys) -> float:
    """Share of requests whose configuration an earlier request used."""
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


if __name__ == "__main__":
    sys.exit(main())
