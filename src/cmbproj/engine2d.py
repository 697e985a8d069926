"""Separable projection engine.

The triple multipole sum collapses into products of 1D resummations
P[a,b](r, mu) once the geometric weight is written as a Legendre-product
integral over mu.  The fast path precomputes P for every (basis pair,
radial point, quadrature node) and sweeps the rows of the mapping by
their (i, j) pair: over fixed slabs of radial points, each pair's
factor P[i,b1] P[j,b2] is contracted with the weighted P[k,b3] of every
k that pair has, summing r and mu together in one GEMM over a folded
(r, mu) axis, into T[n, b].  The six-term permanent of each entry is
then one product with the counts S of the column permutations,
Gamma = T S^T / 48 pi.  This is the one table path; ``scheduler.run_chunks``
runs its groups, split among the workers by their row counts.  The naive
path recomputes the multipole sums per entry, exactly like the original
hotspot, and is kept permanently as its oracle.
"""

from __future__ import annotations

import math
from multiprocessing import get_context

import numpy as np

from .basis import BasisTables, ModeMapping, RadialGrid, _permutation_counts
from .gamma import MEMORY_BUDGET, GammaMatrix, _base_meta
from .quadrature import QuadratureRule, integration_weights
from .scheduler import chunk_inputs, make_weighted_plan, run_chunks

__all__ = [
    "min_mu_points",
    "default_mu_points",
    "build_ptable",
    "gamma2d_entry_naive",
    "gamma2d_matrix",
    "gamma2d_matrix_naive",
]

_FOLD = 3072   # (r, mu) points per radial slab: bounds temporaries for any R

# The mu integrand is a product of three Legendre expansions of degree
# <= l_max, so an n-node rule with 2n-1 >= 3*l_max is exact.
def min_mu_points(l_max: int) -> int:
    """Fewest Gauss-Legendre nodes that integrate the mu product exactly."""
    return math.ceil((3 * l_max + 1) / 2)


def default_mu_points(l_max: int) -> int:
    return min_mu_points(l_max) + 2


def _l_weight(tables: BasisTables) -> np.ndarray:
    """(2l+1) / (v_l sqrt(C_l)) for every l in range."""
    ells = tables.ells().astype(np.float64)
    return (2.0 * ells + 1.0) / (tables.v * np.sqrt(tables.C))


def _check_ptable_budget(p: int, n_radial: int, n_mu: int) -> None:
    """Refuse a [p, p, R, n_mu] P table larger than ``MEMORY_BUDGET``; its
    size is known before the tables or the mu rule are built."""
    need = p * p * n_radial * n_mu * 8
    if need > MEMORY_BUDGET:
        raise MemoryError(
            f"P table needs {need} bytes but the budget allows "
            f"{MEMORY_BUDGET}")


def build_ptable(tables: BasisTables, grid: RadialGrid, rule: QuadratureRule,
                 legendre: np.ndarray) -> np.ndarray:
    """Precompute P[a, b, x, m] = sum_l lweight_l qtilde_b(r_x, l) q_a(l)
    P_l(mu_m), with late index a, primordial index b, radial point x and
    mu node m.

    The multipole sum is one GEMM, (p^2 R x L) @ (L x n_mu), so the table
    is deterministic for a given BLAS.  Construction is refused when the
    table would exceed ``MEMORY_BUDGET``, and a mu rule with fewer than
    ``min_mu_points(l_max)`` nodes is rejected: it does not integrate the
    mu product exactly.
    """
    p = tables.p_max
    n_r = tables.n_radial
    n_mu = rule.n
    _check_ptable_budget(p, n_r, n_mu)
    if n_mu < min_mu_points(tables.l_max):
        raise ValueError(
            f"mu rule has {n_mu} nodes but l_max={tables.l_max} needs "
            f">= {min_mu_points(tables.l_max)} to integrate exactly")
    if legendre.shape[0] < tables.l_max + 1:
        raise ValueError("legendre table does not reach l_max")
    lw = _l_weight(tables)
    pl = legendre[tables.l_min:tables.l_max + 1]     # [L, n_mu]
    lq = lw * tables.q                               # [p, L]
    left = lq[:, None, None, :] * tables.q_tilde[None]   # [p, p, R, L]
    values = left.reshape(p * p * n_r, -1) @ pl
    return values.reshape(p, p, n_r, n_mu)


def _permanent3(m):
    """Permanent of a 3x3 block m[a][b][...], the six-product sum of the
    original inner loop; vectorised over trailing axes."""
    return (m[0][0] * m[1][1] * m[2][2]
            + m[0][0] * m[1][2] * m[2][1]
            + m[0][1] * m[1][0] * m[2][2]
            + m[0][1] * m[1][2] * m[2][0]
            + m[0][2] * m[1][0] * m[2][1]
            + m[0][2] * m[1][1] * m[2][0])


def gamma2d_entry_naive(n: int, n_prime: int, tables: BasisTables,
                        mapping: ModeMapping, grid: RadialGrid,
                        rule: QuadratureRule, legendre: np.ndarray,
                        integrator: str = "trap") -> float:
    """Reference entry without the precomputed table.

    Recomputes the nine multipole sums at every (radial point, mu node)
    pair, mirroring the original per-entry hotspot.  Kept permanently as
    the oracle for the table path of ``gamma2d_matrix``.
    """
    rows = mapping.triple(n)
    cols = mapping.triple(n_prime)
    lw = _l_weight(tables)
    pl = legendre[tables.l_min:tables.l_max + 1]        # [L, n_mu]
    factor = lw[:, None] * pl                           # [L, n_mu]
    q_rows = tables.q[list(rows)]                       # [3, L]
    inner = np.empty(tables.n_radial)
    for x in range(tables.n_radial):
        qt_cols = tables.q_tilde[list(cols), x]         # [3, L]
        m = np.einsum("lm,al,bl->abm", factor, q_rows, qt_cols)
        per = _permanent3(m)                            # [n_mu]
        inner[x] = per @ rule.weights
    w = integration_weights(grid.r, integrator)
    return float((grid.r**2 * inner) @ w / (48.0 * np.pi))


def _pair_groups(mapping: ModeMapping):
    """The rows of each distinct (i, j), in order of first appearance:
    ((i, j, rows, ks), ...) with the rows and their k in mapping order."""
    groups: dict = {}
    for row, (i, j, k) in enumerate(mapping.entries.tolist()):
        rows, ks = groups.setdefault((i, j), ([], []))
        rows.append(row)
        ks.append(k)
    return tuple((i, j, tuple(rows), tuple(ks))
                 for (i, j), (rows, ks) in groups.items())


def _sweep(groups, pv, w):
    """Rows of T for some (i, j) groups, from the P table ``pv`` and the
    folded weights ``w``.  Per radial slab, one GEMM per group contracts
    P[i,b1] P[j,b2] over the folded (r, mu) axis with the weighted rows
    w P[k,b3] of every k the group has.  A group's operations are the
    same in any chunk."""
    p, _, n_r, n_mu = pv.shape
    accs = [np.zeros((p * p, len(ks) * p)) for _, _, _, ks in groups]
    step = max(1, _FOLD // n_mu)
    for x0 in range(0, n_r, step):
        f = pv[:, :, x0:x0 + step].reshape(p, p, -1)    # [a, b, X n_mu]
        ws = w[x0 * n_mu:(x0 + step) * n_mu]
        for (i, j, _, ks), acc in zip(groups, accs):
            left = (f[i][:, None] * f[j][None]).reshape(p * p, -1)
            right = f[list(ks)]
            right *= ws
            acc += left @ right.reshape(-1, f.shape[-1]).T
    return np.concatenate(
        [acc.reshape(p, p, -1, p).transpose(2, 0, 1, 3).reshape(-1, p**3)
         for acc in accs] or [np.zeros((0, p**3))])


def _cells_chunk(groups):
    """Chunk entry point: ``_sweep`` over ``groups`` with the P table and
    folded weights ``run_chunks`` shares.  ``perfbench/tracing.py`` wraps
    it by name."""
    return _sweep(groups, *chunk_inputs())


def gamma2d_matrix(tables: BasisTables, mapping: ModeMapping,
                   grid: RadialGrid, rule: QuadratureRule,
                   legendre: np.ndarray, integrator: str = "trap",
                   workers: int = 1) -> GammaMatrix:
    """Full matrix via the precomputed-table path, parallel over the
    (i, j) groups of the mapping, split among the workers by their row
    counts.

    One folded (r, mu) GEMM per group and radial slab, with the columns
    symmetrised once by S (see the module docstring).  Every row is
    computed by the same operations in any chunk, so the result is
    bitwise identical for any worker count.
    """
    wr2 = integration_weights(grid.r, integrator) * grid.r**2
    ptable = build_ptable(tables, grid, rule, legendre)
    weights = np.outer(wr2, rule.weights).ravel()
    groups = _pair_groups(mapping)
    sizes = [len(rows) for _, _, rows, _ in groups]
    # no worker is forked for an empty chunk
    jobs = [groups[start:stop]
            for start, stop in make_weighted_plan(sizes, workers)
            if start < stop]
    chunks = run_chunks(get_context, _cells_chunk, jobs, (ptable, weights))
    order = [row for _, _, rows, _ in groups for row in rows]
    t = np.empty((mapping.n_max, tables.p_max**3))
    t[order] = np.concatenate(chunks)
    s = _permutation_counts(mapping, tables.p_max)
    values = t @ s.T / (48.0 * np.pi)
    meta = _base_meta(tables, grid, mapping, "modal2d", integrator,
                      {"n_mu": int(rule.n), "workers": int(workers)})
    return GammaMatrix(values, meta)


def gamma2d_matrix_naive(tables: BasisTables, mapping: ModeMapping,
                         grid: RadialGrid, rule: QuadratureRule,
                         legendre: np.ndarray,
                         integrator: str = "trap") -> GammaMatrix:
    """All-naive matrix (single-threaded oracle sweep)."""
    n_max = mapping.n_max
    values = np.empty((n_max, n_max))
    for n in range(n_max):
        for n_prime in range(n_max):
            values[n, n_prime] = gamma2d_entry_naive(
                n, n_prime, tables, mapping, grid, rule, legendre, integrator)
    meta = _base_meta(tables, grid, mapping, "modal2d-naive", integrator,
                      {"n_mu": rule.n, "workers": 1})
    return GammaMatrix(values, meta)
