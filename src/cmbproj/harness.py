"""Run orchestration: configuration, comparisons, studies and matrix I/O.

This is the driver layer behind the command line: it owns the run
configuration, the RMSE comparison between unit-normalised matrices, the
integrator convergence study, the cross-check between the separable and
direct engines and the matrix file formats, which keep a matrix's whole
provenance ``meta`` and give it back on reading.

Every run mode reads a configuration's inputs (grid and tables, default
mapping, mu rule with its Legendre table, triple domain) through private
memos, the one per-process cache of them: each is built once and reused
by later runs with the same values, kept with read-only arrays and
bounded by entry count and entry size.
"""

from __future__ import annotations

import json
import os
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass, asdict, replace

import numpy as np

from .basis import (default_mode_mapping, default_radial_grid,
                    load_mode_mapping, synthesize_basis)
from .engine2d import (_check_ptable_budget, default_mu_points,
                       gamma2d_matrix, min_mu_points)
from .engine3d import DEFAULT_BLOCK, gamma3d_matrices, gamma3d_matrix
from .gamma import GammaMatrix
from .geometry import H2_MODES, enumerate_domain, h2_exact, h2_gosper
from .quadrature import INTEGRATORS, gauss_legendre, legendre_table

__all__ = [
    "ConfigError",
    "GammaFormatError",
    "RunConfig",
    "ComparisonReport",
    "rmse_percent",
    "max_rel_deviation",
    "serialize_gamma",
    "deserialize_gamma",
    "run_gamma",
    "run_crosscheck",
    "run_convergence_study",
    "CONVERGENCE_LADDER",
]

CONVERGENCE_LADDER = (54, 108, 216, 432, 864, 1768)
GOLD_R = 1768

MODES = ("gamma2d", "gamma3d", "crosscheck", "convergence")
INTEGRATOR_NAMES = tuple(INTEGRATORS)
FORMATS = ("csv", "bin")


class ConfigError(ValueError):
    """Invalid run configuration."""


class GammaFormatError(ValueError):
    """Corrupt or inconsistent gamma matrix file."""


@dataclass
class RunConfig:
    mode: str = "crosscheck"
    l_min: int = 2
    l_max: int = 32
    p_max: int = 4
    mapping: str = "default"     # "default" or a file path
    r_samples: int = 216
    integrator: str = "trap"
    h2_mode: str = "gosper"
    mu_points: int | None = None    # None -> exactness rule for l_max
    block: int = DEFAULT_BLOCK
    workers: int = 1
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 2 <= self.l_min <= self.l_max:
            raise ConfigError("require 2 <= lmin <= lmax")
        # (l, l, l) has an even sum for even l, and (l, l, l + 1) for odd l,
        # so only a single odd l has no valid triple
        if self.l_min == self.l_max and self.l_min % 2:
            raise ConfigError(
                f"lmin = lmax = {self.l_min} has no valid triple: l1+l2+l3 "
                f"is odd")
        if self.p_max < 1:
            raise ConfigError("pmax must be >= 1")
        if self.r_samples < 12:
            raise ConfigError("r-samples must be >= 12")
        if self.integrator not in INTEGRATOR_NAMES:
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if self.h2_mode not in H2_MODES:
            raise ConfigError(f"unknown h2 mode {self.h2_mode!r}")
        if self.mu_points is not None \
                and self.mu_points < min_mu_points(self.l_max):
            raise ConfigError(
                f"mu-points must be >= {min_mu_points(self.l_max)} for "
                f"lmax={self.l_max}: fewer Gauss-Legendre nodes do not "
                f"integrate the mu product exactly")
        if self.block < 1:
            raise ConfigError("block must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        cpus = os.cpu_count() or 1
        if self.workers > cpus:
            raise ConfigError(f"workers must be <= {cpus}, the CPU count: "
                              f"each worker is a process")
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown output format {self.fmt!r}")
        return self

    def resolved_mu_points(self) -> int:
        return self.mu_points if self.mu_points is not None \
            else default_mu_points(self.l_max)

    def header_lines(self) -> list[str]:
        """Fully resolved provenance header for every output."""
        d = asdict(self)
        d["mu_points"] = self.resolved_mu_points()
        return [f"# {k}={d[k]}" for k in sorted(d)]


# every run mode keeps its inputs per process, keyed by the config values
# they depend on: at most _MEMO_ENTRIES per kind, the least recently used
# dropped first, and none whose arrays exceed _MEMO_BYTES
_MEMO_ENTRIES = 64
_MEMO_BYTES = 1 << 20
_MEMOS = {kind: OrderedDict()
          for kind in ("tables", "mapping", "mu", "domain")}


def _grid_and_tables(p_max, l_min, l_max, r_samples):
    grid = default_radial_grid(r_samples)
    tables = synthesize_basis(p_max, l_min, l_max, grid)
    return (grid, tables), (grid.r, tables.q, tables.q_tilde, tables.C,
                            tables.v)


def _default_mapping(p_max):
    mapping = default_mode_mapping(p_max)
    return mapping, (mapping.entries,)


def _mu_tables(n_mu, l_max):
    rule = gauss_legendre(n_mu)
    legendre = legendre_table(l_max, rule)
    return (rule, legendre), (rule.nodes, rule.weights, legendre)


def _domain(l_min, l_max):
    domain = enumerate_domain(l_min, l_max)
    return domain, (domain.l1, domain.l2, domain.l3)


def _input(kind, key, build):
    """``build(*key)``'s value from the memo ``kind``: on a miss it is
    built by the public constructors and kept, its arrays made read-only,
    unless they exceed ``_MEMO_BYTES``."""
    memo = _MEMOS[kind]
    value = memo.pop(key, None)
    if value is None:
        value, arrays = build(*key)
        if sum(a.nbytes for a in arrays) > _MEMO_BYTES:
            return value
        for a in arrays:
            a.flags.writeable = False
    memo[key] = value
    if len(memo) > _MEMO_ENTRIES:
        memo.popitem(last=False)
    return value


def _problem(config: RunConfig):
    """Tables, mapping and grid for a configuration, from the memos; a
    mapping file is read on every call."""
    grid, tables = _input("tables", (config.p_max, config.l_min,
                                     config.l_max, config.r_samples),
                          _grid_and_tables)
    if config.mapping == "default":
        mapping = _input("mapping", (config.p_max,), _default_mapping)
    else:
        mapping = load_mode_mapping(config.mapping)
        if mapping.p_max > config.p_max:
            raise ConfigError(
                f"mapping file needs p_max={mapping.p_max} but run has "
                f"p_max={config.p_max}")
    return tables, mapping, grid


def _mu_quadrature(config: RunConfig):
    """The separable engine's mu rule and its Legendre table, from the
    memos.  An over-budget P table is refused first, before the O(n^2)
    rule is built."""
    n_mu = config.resolved_mu_points()
    _check_ptable_budget(config.p_max, config.r_samples, n_mu)
    return _input("mu", (n_mu, config.l_max), _mu_tables)


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------

def rmse_percent(a: GammaMatrix | np.ndarray,
                 b: GammaMatrix | np.ndarray) -> float:
    """Percentage RMSE between the two unit-normalised matrices.

    Each matrix is scaled to unit Frobenius norm first, so the measure is
    invariant under global rescaling of either argument.
    """
    av = a.values if isinstance(a, GammaMatrix) else np.asarray(a, float)
    bv = b.values if isinstance(b, GammaMatrix) else np.asarray(b, float)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch {av.shape} vs {bv.shape}")
    na = np.linalg.norm(av)
    nb = np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        raise ValueError("unit normalisation undefined for a zero matrix")
    diff = av / na - bv / nb
    return 100.0 * float(np.sqrt(np.mean(diff**2)))


def max_rel_deviation(a: GammaMatrix | np.ndarray,
                      b: GammaMatrix | np.ndarray) -> float:
    """Largest entrywise relative deviation |a-b| / max(|a|, |b|)."""
    av = a.values if isinstance(a, GammaMatrix) else np.asarray(a, float)
    bv = b.values if isinstance(b, GammaMatrix) else np.asarray(b, float)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch {av.shape} vs {bv.shape}")
    denom = np.maximum(np.abs(av), np.abs(bv))
    num = np.abs(av - bv)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(denom > 0, num / denom, 0.0)
    return float(np.max(rel)) if rel.size else 0.0


@dataclass
class ComparisonReport:
    rmse_percent: float
    max_rel_dev: float
    gosper_max_rel_dev: float
    gosper_h2_error_bound: float
    runtime_2d: float
    runtime_3d: float

    def lines(self) -> list[str]:
        return [f"{k}={v:.17g}" for k, v in asdict(self).items()]


# ----------------------------------------------------------------------
# matrix serialization
# ----------------------------------------------------------------------

_CSV_MAGIC = "# modalgamma v2"
_BIN_MAGIC = b"MGAM"
_BIN_VERSION = 2
_BIN_HEADER = struct.Struct("<4sIIII")  # magic, version, rows, cols, meta size


def _write_atomic(path, write, binary: bool = False) -> None:
    """Call ``write(f)`` on a temporary file in the target directory, then
    rename it over ``path``: a failed write leaves any earlier file intact
    and removes the temporary."""
    path = os.fspath(path)
    mode, encoding = ("wb", None) if binary else ("w", "utf-8")
    if os.path.exists(path) and not os.path.isfile(path):
        # a pipe or device such as /dev/stdout cannot be renamed over
        with open(path, mode, encoding=encoding) as f:
            write(f)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def serialize_gamma(gamma: GammaMatrix, path, fmt: str = "csv") -> None:
    """Write a matrix and its whole ``meta``, which both formats store as
    ``json.dumps(meta, sort_keys=True)``.

    csv: a line ``# modalgamma v2 <rows> <cols> <meta JSON>``, then one
    line of ``%.17g`` values per row.  bin: ``MGAM``, then little-endian
    u32 version 2, rows, cols and the JSON's byte length, then the UTF-8
    JSON, then the ``<f8`` values row by row.
    """
    meta = json.dumps(gamma.meta, sort_keys=True)
    rows, cols = gamma.shape
    if fmt == "csv":
        header = f"{_CSV_MAGIC} {rows} {cols} {meta}"
        _write_lines(path, [header] + [",".join(f"{x:.17g}" for x in row)
                                       for row in gamma.values])
    elif fmt == "bin":
        meta = meta.encode("utf-8")
        blob = (_BIN_HEADER.pack(_BIN_MAGIC, _BIN_VERSION, rows, cols,
                                 len(meta))
                + meta + gamma.values.astype("<f8").tobytes())
        _write_atomic(path, lambda f: f.write(blob), binary=True)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _read_matrix(values, meta) -> GammaMatrix:
    """A matrix read from a file: ``meta`` must be a JSON object, and
    non-finite entries are a format error."""
    try:
        meta = json.loads(meta)
    except (ValueError, RecursionError) as exc:
        raise GammaFormatError(f"corrupt meta: {exc}") from exc
    if not isinstance(meta, dict):
        raise GammaFormatError("corrupt meta: not a JSON object")
    try:
        return GammaMatrix(values, meta)
    except ValueError as exc:
        raise GammaFormatError(str(exc)) from exc


def deserialize_gamma(path, fmt: str = "csv") -> GammaMatrix:
    """Read a matrix and its ``meta`` written by :func:`serialize_gamma`;
    a file of another version is corrupt."""
    if fmt == "csv":
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
        head = lines[0].split(" ", 5) if lines else []
        if len(head) != 6 or " ".join(head[:3]) != _CSV_MAGIC:
            raise GammaFormatError("corrupt header")
        try:
            n_rows, n_cols = int(head[3]), int(head[4])
        except ValueError as exc:
            raise GammaFormatError("corrupt header") from exc
        rows = lines[1:]
        if len(rows) != n_rows:
            raise GammaFormatError(
                f"dimension mismatch: header says {n_rows} rows, "
                f"found {len(rows)}")
        # a row with no columns is an empty line
        cells = [row.split(",") if row else [] for row in rows]
        if any(len(row) != n_cols for row in cells):
            raise GammaFormatError(
                f"dimension mismatch: expected {n_cols} columns per row")
        try:
            values = np.array([[float(x) for x in row] for row in cells],
                              dtype=np.float64).reshape(n_rows, n_cols)
        except ValueError as exc:
            raise GammaFormatError(f"non-numeric cell: {exc}") from exc
        return _read_matrix(values, head[5])
    if fmt == "bin":
        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) < _BIN_HEADER.size or blob[:4] != _BIN_MAGIC:
            raise GammaFormatError("corrupt header")
        _, version, rows, cols, meta_len = _BIN_HEADER.unpack_from(blob)
        if version != _BIN_VERSION:
            raise GammaFormatError(f"unsupported version {version}")
        start = _BIN_HEADER.size + meta_len
        if start > len(blob):
            raise GammaFormatError("truncated meta")
        if len(blob) - start != rows * cols * 8:
            raise GammaFormatError("truncated payload")
        values = np.frombuffer(blob, "<f8", offset=start).reshape(rows, cols)
        return _read_matrix(values.copy(), blob[_BIN_HEADER.size:start])
    raise ValueError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------------
# run modes
# ----------------------------------------------------------------------

def run_gamma(config: RunConfig) -> GammaMatrix:
    """Compute the matrix with the configured engine.

    A configuration's grid and tables, default mapping, mu rule with its
    Legendre table and triple domain come from the memos.
    """
    config.validate()
    tables, mapping, grid = _problem(config)
    if config.mode == "gamma2d":
        rule, legendre = _mu_quadrature(config)
        return gamma2d_matrix(tables, mapping, grid, rule, legendre,
                              integrator=config.integrator,
                              workers=config.workers)
    if config.mode == "gamma3d":
        domain = _input("domain", (config.l_min, config.l_max), _domain)
        return gamma3d_matrix(tables, mapping, grid,
                              h2_mode=config.h2_mode,
                              integrator=config.integrator,
                              block=config.block, workers=config.workers,
                              domain=domain)
    raise ConfigError(f"mode {config.mode!r} does not produce a matrix")


def run_crosscheck(config: RunConfig) -> ComparisonReport:
    """Separable vs direct engine on the same radial rule.

    The direct engine runs in exact-3j mode, where the two forms are
    algebraically identical under exact mu quadrature; the Gosper-mode
    deviation envelope is reported alongside.
    """
    config.validate()
    tables, mapping, grid = _problem(config)
    rule, legendre = _mu_quadrature(config)
    domain = _input("domain", (config.l_min, config.l_max), _domain)

    t0 = time.perf_counter()
    g2 = gamma2d_matrix(tables, mapping, grid, rule, legendre,
                        integrator=config.integrator,
                        workers=config.workers)
    t1 = time.perf_counter()
    g3 = gamma3d_matrix(tables, mapping, grid, h2_mode="exact",
                        integrator=config.integrator,
                        block=config.block, workers=config.workers,
                        domain=domain)
    t2 = time.perf_counter()
    g3_gosper = gamma3d_matrix(tables, mapping, grid, h2_mode="gosper",
                               integrator=config.integrator,
                               block=config.block, workers=config.workers,
                               domain=domain)

    exact = h2_exact(domain.l1, domain.l2, domain.l3)
    gosper = h2_gosper(domain.l1, domain.l2, domain.l3)
    h2_err = float(np.max(np.abs(gosper / exact - 1.0))) if domain.count \
        else 0.0

    return ComparisonReport(
        rmse_percent=rmse_percent(g2, g3),
        max_rel_dev=max_rel_deviation(g2, g3),
        gosper_max_rel_dev=max_rel_deviation(g3_gosper, g3),
        gosper_h2_error_bound=h2_err,
        runtime_2d=t1 - t0,
        runtime_3d=t2 - t1,
    )


def run_convergence_study(config: RunConfig,
                          ladder=CONVERGENCE_LADDER) -> list[dict]:
    """Integrator accuracy study against the dense-spline gold standard.

    The gold standard is the direct engine with the spline integrator on
    the densest grid.  One sweep per distinct point count fills the
    matrices of all three integrators; each (integrator, point count) pair
    reports its percentage RMSE against gold, and ``seconds`` is the wall
    time of its point count's shared sweep, set-up included.
    """
    config.validate()
    domain = _input("domain", (config.l_min, config.l_max), _domain)
    sweeps = {}
    for n_r in dict.fromkeys((GOLD_R, *ladder)):
        t0 = time.perf_counter()
        tables, mapping, grid = _problem(replace(config, r_samples=n_r))
        matrices = gamma3d_matrices(
            tables, mapping, grid, h2_mode=config.h2_mode,
            integrators=INTEGRATOR_NAMES, block=config.block,
            workers=config.workers, domain=domain)
        sweeps[n_r] = (dict(zip(INTEGRATOR_NAMES, matrices)),
                       time.perf_counter() - t0)
    gold = sweeps[GOLD_R][0]["spline"]
    return [{"integrator": integrator, "r_samples": n_r,
             "rmse_percent": rmse_percent(sweeps[n_r][0][integrator], gold),
             "seconds": sweeps[n_r][1]}
            for integrator in INTEGRATOR_NAMES for n_r in ladder]


def _csv_lines(rows: list[dict]) -> list[str]:
    """The CSV header line and one line per row, floats at full precision."""
    if not rows:
        raise ValueError("no rows to write")
    keys = list(rows[0])
    return [",".join(keys)] + [",".join(_cell(row[k]) for k in keys)
                               for row in rows]


def _write_lines(path, lines) -> None:
    def write(f):
        for line in lines:
            f.write(line + "\n")
    _write_atomic(path, write)


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)
