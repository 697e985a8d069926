"""The benchmark's workloads.

Each workload is a closed loop with one client: the benchmark generates a
request from the seed, runs it (the timed op), and only then generates the
next one.  Verification against an independent path happens after the
measured loop, outside the timed region.

A workload exposes:

* ``build()``       fixed inputs (timed as part of set-up);
* ``warmup()``      the request of the warm-up op (also part of set-up);
* ``requests()``    an endless seeded request stream;
* ``run(req)``      the timed op;
* ``verify(req, result)``  raises ``Mismatch`` on a wrong result;
* ``work(req)``     cells / triples the op sweeps, for per-layer rates;
* ``counts()``      kernel counts computed from array shapes, per op;
* ``written(req, result)``  bytes the op wrote through ``harness``.

Calls into the program go through module attributes (``cp.name``) at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np

import cmbproj as cp
from tracing import graft

INTEGRATORS = ("trap", "hermite", "spline")

# Entrywise agreement between two engines: relative tolerance per entry
# (criterion 1 of the acceptance suite) with an absolute floor, as a share
# of the matrix scale, for entries that nearly cancel.
ENGINE_RTOL = 1e-10
ENGINE_FLOOR = 1e-12
# One entry against a naive per-entry oracle.
NAIVE_RTOL = 1e-12
# Largest relative deviation, as a share of the matrix scale, of a Gosper
# matrix from the exact one (the h2 approximation error is below 2.5%).
GOSPER_ENVELOPE = 0.05
# The synthetic basis is separable in r, so after unit normalisation every
# integrator reproduces the gold matrix: the ladder's RMSEs are rounding.
LADDER_RMSE_MAX = 1e-9


class Mismatch(Exception):
    """An op's output disagrees with its independent check."""


def engine_mismatch(got: np.ndarray, ref: np.ndarray, what: str) -> None:
    if got.shape != ref.shape:
        raise Mismatch(f"{what}: shape {got.shape} != {ref.shape}")
    scale = float(np.max(np.abs(ref)))
    excess = np.abs(got - ref) - (ENGINE_RTOL * np.abs(ref)
                                  + ENGINE_FLOOR * scale)
    if not np.all(excess <= 0):
        worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise Mismatch(f"{what}: entry {tuple(map(int, worst))} "
                       f"{got[worst]!r} vs {ref[worst]!r}")


def entry_mismatch(got: float, ref: float, what: str) -> None:
    if not abs(got - ref) <= NAIVE_RTOL * abs(ref):
        raise Mismatch(f"{what}: {got!r} vs {ref!r}")


def mixed_tables(base, rng):
    """``base`` with q and q_tilde mixed by seeded near-identity p x p
    matrices, so every op gets tables no earlier op has seen."""
    p = base.p_max
    a = np.eye(p) + 0.05 * rng.standard_normal((p, p))
    b = np.eye(p) + 0.05 * rng.standard_normal((p, p))
    return cp.BasisTables(q=a @ base.q,
                          q_tilde=np.einsum("ij,jxl->ixl", b, base.q_tilde),
                          C=base.C, v=base.v,
                          l_min=base.l_min, l_max=base.l_max)


def permuted_mapping(mapping, rng):
    return cp.ModeMapping(mapping.entries[rng.permutation(mapping.n_max)],
                          mapping.p_max)


def table_bytes(p: int, n_r: int, n_l: int) -> int:
    """BasisTables size: q [p, L], q_tilde [p, R, L], C [L], v [L]."""
    return 8 * (p * n_l + p * n_r * n_l + 2 * n_l)


def ptable_bytes(p: int, n_r: int, n_mu: int) -> int:
    """engine2d P table: values [p, p, R, n_mu]."""
    return 8 * p * p * n_r * n_mu


def engine3d_shape_counts(triples: int, n: int, p: int, n_r: int):
    """Floating-point operations and bytes of materialised arrays of the
    direct engine's blocked sweep, from its array shapes (per triple:
    six-permutation products for P [n] and F [n, R], the radial
    contraction, the z scaling and the P X^T update)."""
    ops = 18 * n + 18 * n * n_r + 2 * n * n_r + n + 2 * n * n
    # gathers of q [3p] and q_tilde [3pR]; per permutation three gathers
    # and two products for P and for F; accumulators P, F and X.
    words = 3 * p + 3 * p * n_r + 30 * n + 30 * n * n_r + n + n * n_r + n
    return triples * ops, triples * 8 * words


def direct_entry_gosper(n, n_prime, tables, mapping, grid, integrator,
                        domain) -> float:
    """One direct-engine entry in Gosper mode, summed triple by triple
    through the public per-triple functions (the naive oracle's loop)."""
    terms = []
    for t in range(domain.count):
        l1, l2, l3 = domain.triple(t)
        x = cp.radial_integral_x(l1, l2, l3, n_prime, tables, mapping, grid,
                                 integrator)
        y = cp.late_product_y(l1, l2, l3, n, tables, mapping)
        z = cp.geometric_prefactor(l1, l2, l3, tables.C, tables.v,
                                   l_min=tables.l_min)
        terms.append(x * y * z * cp.permutation_multiplicity(l1, l2, l3))
    return math.fsum(terms)


class Workload:
    name = ""
    workers = 1
    stride = 1          # requests per cycle; the loop stops on a boundary

    def __init__(self, seed: int, workdir: str, child_env: dict):
        self.seed = seed
        self.workdir = workdir
        self.child_env = child_env

    def warmup(self):
        return self._request(np.random.default_rng([self.seed, 0]))

    def requests(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield self._request(rng)

    def written(self, req, result) -> int:
        return 0


@dataclasses.dataclass
class MatrixRequest:
    tables: object
    mapping: object


class DirectParallel(Workload):
    """op = one gamma3d_matrix (exact h2) at l_max=80 with two workers on
    fresh seeded tables.  The separable engine's rule and Legendre table
    serve the check."""

    name = "direct-parallel"
    workers = 2
    L_MAX, P_MAX, N_R, INTEGRATOR, BLOCK = 80, 4, 216, "trap", 64

    def build(self):
        self.grid = cp.default_radial_grid(self.N_R)
        self.base = cp.synthesize_basis(self.P_MAX, 2, self.L_MAX, self.grid)
        self.mapping = cp.default_mode_mapping(self.P_MAX)
        self.domain = cp.enumerate_domain(2, self.L_MAX)
        self.rule = cp.gauss_legendre(cp.default_mu_points(self.L_MAX))
        self.legendre = cp.legendre_table(self.L_MAX, self.rule)

    def _request(self, rng):
        return MatrixRequest(mixed_tables(self.base, rng),
                             permuted_mapping(self.mapping, rng))

    def run(self, req, tracer=None, workers=None):
        return cp.gamma3d_matrix(req.tables, req.mapping, self.grid,
                                 h2_mode="exact", integrator=self.INTEGRATOR,
                                 block=self.BLOCK,
                                 workers=workers or self.workers,
                                 domain=self.domain)

    def verify(self, req, result):
        ref = cp.gamma2d_matrix(req.tables, req.mapping, self.grid,
                                self.rule, self.legendre,
                                integrator=self.INTEGRATOR)
        engine_mismatch(result.values, ref.values, "direct vs separable")

    def work(self, req):
        return {"cells": 0, "triples": self.domain.count}

    def counts(self):
        n_max = self.mapping.n_max
        ops, nbytes = engine3d_shape_counts(self.domain.count, n_max,
                                            self.P_MAX, self.N_R)
        return {"engine2d.ptable_bytes": 0,
                "engine3d.ops_computed": ops,
                "engine3d.bytes_computed": nbytes,
                "basis.table_bytes": table_bytes(self.P_MAX, self.N_R,
                                                 self.L_MAX - 1),
                "geometry.domain_triples": self.domain.count}


@dataclasses.dataclass
class LadderRequest:
    mapping_path: str
    out_path: str


class ConvergenceLadder(Workload):
    """op = one ``cmbproj --mode convergence`` process: the paper's
    integrator ladder for all three integrators plus the spline gold."""

    name = "convergence-ladder"
    L_MAX, P_MAX = 16, 3
    LADDER = (54, 108, 216, 432, 864, 1768)
    GOLD_R = 1768

    def build(self):
        self.mapping = cp.default_mode_mapping(self.P_MAX)
        self.trace_child = os.path.join(os.path.dirname(__file__),
                                        "trace_child.py")
        self._n = 0

    def _request(self, rng):
        self._n += 1
        stem = os.path.join(self.workdir, f"ladder-{self._n}")
        cp.save_mode_mapping(permuted_mapping(self.mapping, rng),
                             stem + ".map")
        return LadderRequest(stem + ".map", stem + ".csv")

    def cli_args(self, req, out):
        return ["--mode", "convergence", "--lmax", str(self.L_MAX),
                "--pmax", str(self.P_MAX), "--mapping", req.mapping_path,
                "--out", out]

    def _process(self, cmd):
        proc = subprocess.run(cmd, env=self.child_env, capture_output=True,
                              text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"cmbproj exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")

    def run(self, req, tracer=None):
        if tracer is None:
            self._process([sys.executable, "-m", "cmbproj.cli"]
                          + self.cli_args(req, req.out_path))
            return req.out_path
        out = req.out_path + ".traced.csv"
        sid = tracer.open("cli", "process")
        try:
            self._process([sys.executable, self.trace_child, out + ".json",
                           "--"] + self.cli_args(req, out))
        finally:
            tracer.close(sid)
        with open(out + ".json", "r", encoding="utf-8") as f:
            graft(tracer.spans, json.load(f), sid)
        return out

    def verify(self, req, result):
        with open(result, "r", encoding="utf-8") as f:
            rows = list(csv.DictReader(
                line for line in f if not line.startswith("#")))
        if len(rows) != 3 * len(self.LADDER):
            raise Mismatch(f"{len(rows)} ladder rows")
        seen = set()
        for row in rows:
            key = (row["integrator"], int(row["r_samples"]))
            rmse = float(row["rmse_percent"])
            if not (math.isfinite(rmse) and 0.0 <= rmse <= LADDER_RMSE_MAX):
                raise Mismatch(f"{key}: rmse_percent={row['rmse_percent']}")
            if not float(row["seconds"]) > 0.0:
                raise Mismatch(f"{key}: seconds={row['seconds']}")
            seen.add(key)
        if seen != {(i, r) for i in INTEGRATORS for r in self.LADDER}:
            raise Mismatch(f"ladder rows {sorted(seen)}")

    def written(self, req, result):
        return os.path.getsize(result)

    def _calls(self):
        """(R, triples) of every gamma3d_matrix call of one ladder."""
        triples = cp.enumerate_domain(2, self.L_MAX).count
        return [(self.GOLD_R, triples)] + [(r, triples) for _ in INTEGRATORS
                                           for r in self.LADDER]

    def work(self, req):
        return {"cells": 0, "triples": sum(t for _, t in self._calls())}

    def counts(self):
        n_max = self.mapping.n_max
        ops = nbytes = tbytes = 0
        for n_r, triples in self._calls():
            o, b = engine3d_shape_counts(triples, n_max, self.P_MAX, n_r)
            ops, nbytes = ops + o, nbytes + b
            tbytes += table_bytes(self.P_MAX, n_r, self.L_MAX - 1)
        return {"engine2d.ptable_bytes": 0,
                "engine3d.ops_computed": ops,
                "engine3d.bytes_computed": nbytes,
                "basis.table_bytes": tbytes,
                "geometry.domain_triples": sum(t for _, t in self._calls())}


@dataclasses.dataclass
class MixRequest:
    key: int
    config: object
    fmt: str | None
    path: str | None


class RequestMix(Workload):
    """op = one small ``harness.run_gamma`` request, a third of them
    exported and read back.

    The pool is a fixed design -- engine x p_max x R x l_max, with the
    integrators laid out as a Latin square over (p_max, R, l_max) -- so
    every seed runs the same spread of request sizes.  The seed draws the
    h2 mode of each gamma3d configuration, the request order and the
    exports.  Requests cycle through the pool in seeded order, so repeats
    of a configuration are the common case.
    """

    name = "request-mix"
    ENGINES, PS, RS, LS = ("gamma2d", "gamma3d"), (2, 3, 4), \
        (54, 108, 216), (8, 24, 40)
    CHECK_CELLS = 1

    def build(self):
        rng = np.random.default_rng([self.seed, 2])
        pool = []
        for engine in self.ENGINES:
            for i, n_r in enumerate(self.RS):
                for j, l_max in enumerate(self.LS):
                    for k, p in enumerate(self.PS):
                        h2 = str(rng.choice(("gosper", "exact"))) \
                            if engine == "gamma3d" else "exact"
                        pool.append(cp.RunConfig(
                            mode=engine, l_max=l_max, p_max=p,
                            r_samples=n_r, h2_mode=h2,
                            integrator=INTEGRATORS[(i + j + k) % 3],
                        ).validate())
        self.pool = pool
        self.stride = len(pool)
        self._first = {}

    def warmup(self):
        return MixRequest(-1, dataclasses.replace(self.pool[0]), None, None)

    def requests(self):
        rng = np.random.default_rng([self.seed, 3])
        n = len(self.pool)
        serial = 0
        while True:
            exports = rng.choice(n, n // 3, replace=False)
            fmts = {int(k): ("csv", "bin")[i % 2]
                    for i, k in enumerate(exports)}
            for pos, key in enumerate(rng.permutation(n)):
                serial += 1
                fmt = fmts.get(pos)
                path = None if fmt is None else os.path.join(
                    self.workdir, f"gamma-{serial}.{fmt}")
                yield MixRequest(int(key),
                                 dataclasses.replace(self.pool[key]),
                                 fmt, path)

    def run(self, req, tracer=None):
        gamma = cp.run_gamma(req.config)
        back = None
        if req.fmt is not None:
            cp.serialize_gamma(gamma, req.path, req.fmt)
            back = cp.deserialize_gamma(req.path, req.fmt)
        return gamma, back

    def _problem(self, cfg):
        grid = cp.default_radial_grid(cfg.r_samples)
        tables = cp.synthesize_basis(cfg.p_max, cfg.l_min, cfg.l_max, grid)
        mapping = cp.default_mode_mapping(cfg.p_max)
        return tables, mapping, grid

    def _check_reference(self, req, values):
        """Compare with the other engine in exact mode (and, for Gosper
        requests, with per-triple oracle entries)."""
        cfg = req.config
        tables, mapping, grid = self._problem(cfg)
        if cfg.mode == "gamma2d":
            ref = cp.gamma3d_matrix(tables, mapping, grid, h2_mode="exact",
                                    integrator=cfg.integrator,
                                    block=cfg.block)
            engine_mismatch(values, ref.values, "separable vs direct")
            return
        rule = cp.gauss_legendre(cp.default_mu_points(cfg.l_max))
        legendre = cp.legendre_table(cfg.l_max, rule)
        exact = cp.gamma2d_matrix(tables, mapping, grid, rule, legendre,
                                  integrator=cfg.integrator)
        if cfg.h2_mode == "exact":
            engine_mismatch(values, exact.values, "direct vs separable")
            return
        scale = float(np.max(np.abs(exact.values)))
        gap = float(np.max(np.abs(values - exact.values))) / scale
        if not gap <= GOSPER_ENVELOPE:
            raise Mismatch(f"gosper deviates {gap:.3g} from exact")
        rng = np.random.default_rng([self.seed, 4, req.key])
        domain = cp.enumerate_domain(cfg.l_min, cfg.l_max)
        n_max = mapping.n_max
        for flat in rng.choice(n_max * n_max, self.CHECK_CELLS,
                               replace=False):
            n, n_prime = divmod(int(flat), n_max)
            ref = direct_entry_gosper(n, n_prime, tables, mapping, grid,
                                      cfg.integrator, domain)
            entry_mismatch(float(values[n, n_prime]), ref,
                           f"gosper cell ({n}, {n_prime})")

    def verify(self, req, result):
        gamma, back = result
        if req.fmt is not None and not (
                back.shape == gamma.shape
                and np.array_equal(back.values, gamma.values)):
            raise Mismatch(f"{req.fmt} export does not read back "
                           f"bit-identical")
        if req.key not in self._first:
            self._check_reference(req, gamma.values)
            self._first[req.key] = gamma.values
        elif not np.array_equal(gamma.values, self._first[req.key]):
            raise Mismatch(f"repeat of configuration {req.key} differs")

    def written(self, req, result):
        return 0 if req.path is None else os.path.getsize(req.path)

    def work(self, req):
        cfg = req.config
        if cfg.mode == "gamma2d":
            return {"cells": cp.default_mode_mapping(cfg.p_max).n_max ** 2,
                    "triples": 0}
        return {"cells": 0,
                "triples": cp.enumerate_domain(cfg.l_min, cfg.l_max).count}

    def counts(self):
        """Per-op mean over the pool, each configuration once."""
        tot = dict.fromkeys(("engine2d.ptable_bytes", "engine3d.ops_computed",
                             "engine3d.bytes_computed", "basis.table_bytes",
                             "geometry.domain_triples"), 0)
        for cfg in self.pool:
            n_l = cfg.l_max - cfg.l_min + 1
            n_max = cp.default_mode_mapping(cfg.p_max).n_max
            tot["basis.table_bytes"] += table_bytes(cfg.p_max, cfg.r_samples,
                                                    n_l)
            if cfg.mode == "gamma2d":
                tot["engine2d.ptable_bytes"] += ptable_bytes(
                    cfg.p_max, cfg.r_samples, cfg.resolved_mu_points())
            else:
                triples = cp.enumerate_domain(cfg.l_min, cfg.l_max).count
                ops, nbytes = engine3d_shape_counts(triples, n_max,
                                                    cfg.p_max, cfg.r_samples)
                tot["engine3d.ops_computed"] += ops
                tot["engine3d.bytes_computed"] += nbytes
                tot["geometry.domain_triples"] += triples
        return {k: v / len(self.pool) for k, v in tot.items()}


WORKLOADS = {w.name: w for w in (DirectParallel, ConvergenceLadder,
                                 RequestMix)}
