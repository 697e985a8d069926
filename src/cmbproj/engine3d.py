"""Direct projection engine over the sparse triangular multipole domain.

Each valid ordered triple (l1, l2, l3) contributes a geometric prefactor
z (``geometry.geometric_prefactor``, the one home of z for both h2
modes), a symmetrised late-time product y(n) and a radially integrated
primordial product x(n').  The optimized sweep processes blocks of B
consecutive flattened triples, filling a late-time factor block P and a
primordial factor block X (multiplicity and z folded into X) and
accumulating the matrix as P X^T -- the blocked two-matrix reduction.
X is summed over slabs of ``_SLAB`` radial points (more for a block of
fewer than ``_SLAB`` triples, see ``_slab_points``): per slab the p^2
products of the first two multipoles' q_tilde rows are formed once, and
each ordering gathers them and multiplies by the third, so a block's
arrays stay bounded however large R is.  The matrix is linear in the
radial weights w_r r^2, so one sweep takes K integrators' weights as a
[K, R] stack and fills K matrices from the same primordial products.
Each worker sweeps one contiguous chunk of whole triple blocks into its
own matrices, and the parent sums these in worker order;
``scheduler.run_chunks`` runs the chunks and shares the other inputs
with forked workers, so a job is only its triple range.  The naive path
keeps the original loop structure (primordial mode outer, triple loops,
inner late-mode accumulation) and is the permanent oracle.
"""

from __future__ import annotations

from multiprocessing import get_context

import numpy as np

from .basis import _PERMS3, BasisTables, ModeMapping, RadialGrid
from .gamma import MEMORY_BUDGET, GammaMatrix, _base_meta
from .geometry import (H2_MODES, TriangularDomain, enumerate_domain,
                       geometric_prefactor, permutation_multiplicity,
                       theta_indicator)
from .quadrature import INTEGRATORS, integration_weights
from .scheduler import chunk_inputs, make_weighted_plan, run_chunks

__all__ = [
    "radial_integral_x",
    "late_product_y",
    "gamma3d_matrix",
    "gamma3d_matrices",
    "gamma3d_naive",
    "gamma3d_unordered_reference",
    "DEFAULT_BLOCK",
]

DEFAULT_BLOCK = 64
_SLAB = 64     # radial points per slab of a block of >= _SLAB triples


def radial_integral_x(l1: int, l2: int, l3: int, n_prime: int,
                      tables: BasisTables, mapping: ModeMapping,
                      grid: RadialGrid, integrator: str = "trap") -> float:
    """Radial integral of r^2 times the six-way symmetrised primordial
    product for one triple and one primordial mode."""
    ip, jp, kp = mapping.triple(n_prime)
    i1 = l1 - tables.l_min
    i2 = l2 - tables.l_min
    i3 = l3 - tables.l_min
    qt = tables.q_tilde
    f = np.zeros(tables.n_radial)
    for a, b, c in _PERMS3:
        idx = (ip, jp, kp)
        f += qt[idx[a], :, i1] * qt[idx[b], :, i2] * qt[idx[c], :, i3]
    return INTEGRATORS[integrator](grid.r, grid.r**2 * f)


def late_product_y(l1: int, l2: int, l3: int, n: int,
                   tables: BasisTables, mapping: ModeMapping) -> float:
    """Six-way symmetrised late-time product for one triple and mode."""
    i, j, k = mapping.triple(n)
    i1 = l1 - tables.l_min
    i2 = l2 - tables.l_min
    i3 = l3 - tables.l_min
    q = tables.q
    idx = (i, j, k)
    return float(sum(q[idx[a], i1] * q[idx[b], i2] * q[idx[c], i3]
                     for a, b, c in _PERMS3))


def _slab_points(b: int) -> int:
    """Radial points per slab for a block of b triples: ``_SLAB``, or more
    for a smaller block, so that a slab still spans _SLAB^2 (point, triple)
    cells and its fixed count of numpy calls stays cheap beside its
    arithmetic."""
    return max(_SLAB, _SLAB * _SLAB // b)


def _block_bytes(p: int, n_max: int, n_radial: int, b: int, k: int) -> int:
    """Upper bound of the bytes ``_block_accumulate`` holds at once for a
    block of at most b triples and k radial weight rows.  Per slab of
    c <= max(_SLAB b, _SLAB^2) (point, triple) cells, and c <= R b: the
    q_tilde gathers of the three multipoles [p, c], the pair products
    [p^2, c], and f, a gathered product and a q_tilde gather [n_max, c]
    each.  Per block: X [k, n_max, b], P and one radial sum [n_max, b]."""
    cells = min(n_radial * b, max(_SLAB * b, _SLAB * _SLAB))
    return 8 * (cells * (3 * p + p * p + 3 * n_max) + b * (k + 2) * n_max)


def _slab_accumulate(x_blk: np.ndarray, qt: np.ndarray, w: np.ndarray,
                     i1: np.ndarray, i2: np.ndarray, i3: np.ndarray,
                     orders: list) -> None:
    """x_blk[k] += the radial sum, with the weights w[k] [S], of the
    symmetrised primordial products over one slab of S radial points;
    ``qt`` is the slab's q_tilde [p, S, L].  Its arrays are freed on
    return, so no two slabs' arrays are live at once."""
    p = len(qt)
    qt3 = qt[:, :, i3]                       # [p, S, B]
    # pairs[i p + j] = q~_i(l1) q~_j(l2)
    pairs = (qt[:, :, i1][:, None] * qt[:, :, i2]).reshape(
        p * p, *qt3.shape[1:])
    f = np.zeros((x_blk.shape[1],) + qt3.shape[1:])   # [n_max, S, B]
    for ab, c in orders:
        term = pairs[ab]
        term *= qt3[c]
        f += term
    for x, wk in zip(x_blk, w):
        x += np.einsum("r,nrb->nb", wk, f)


def _block_accumulate(gamma: np.ndarray, tables: BasisTables,
                      mapping: ModeMapping, wr2: np.ndarray,
                      l1: np.ndarray, l2: np.ndarray, l3: np.ndarray,
                      zm: np.ndarray) -> None:
    """Accumulate one triple block: gamma[k] += P X_k^T for each of the K
    rows of the radial weights ``wr2`` [K, R].

    P[n, t] is the symmetrised late product, X_k[n', t] the symmetrised
    primordial product integrated with weights k and scaled by zm
    (prefactor times permutation multiplicity).  X is summed over slabs of
    ``_slab_points(B)`` radial points, so the block's arrays stay bounded
    however large R is.
    """
    i1 = l1 - tables.l_min
    i2 = l2 - tables.l_min
    i3 = l3 - tables.l_min
    p = tables.p_max
    cols = tuple(mapping.entries.T)          # (i, j, k) of every mode n

    q1 = tables.q[:, i1]                     # [p, B]
    q2 = tables.q[:, i2]
    q3 = tables.q[:, i3]
    p_blk = np.zeros((mapping.n_max, len(l1)))
    for a, b, c in _PERMS3:
        p_blk += q1[cols[a]] * q2[cols[b]] * q3[cols[c]]

    # per ordering, the pair-product rows of its first two factors and the
    # q~(l3) rows of its third
    orders = [(cols[a] * p + cols[b], cols[c]) for a, b, c in _PERMS3]
    x_blk = np.zeros((len(wr2), mapping.n_max, len(l1)))
    s = _slab_points(len(l1))
    for s0 in range(0, tables.n_radial, s):
        _slab_accumulate(x_blk, tables.q_tilde[:, s0:s0 + s],
                         wr2[:, s0:s0 + s], i1, i2, i3, orders)
    x_blk *= zm
    for g, x in zip(gamma, x_blk):
        g += p_blk @ x.T


def _sweep(start, stop, tables, mapping, wr2, domain, h2_mode, block):
    """Triples [start, stop) of the domain, accumulated block by block into
    K matrices."""
    gamma = np.zeros((len(wr2), mapping.n_max, mapping.n_max))
    for b0 in range(start, stop, block):
        b1 = min(b0 + block, stop)
        l1 = domain.l1[b0:b1]
        l2 = domain.l2[b0:b1]
        l3 = domain.l3[b0:b1]
        mult = permutation_multiplicity(l1, l2, l3)
        zm = geometric_prefactor(l1, l2, l3, tables.C, tables.v,
                                 tables.l_min, h2_mode) * mult
        _block_accumulate(gamma, tables, mapping, wr2, l1, l2, l3, zm)
    return gamma


def _sweep_chunk(bounds):
    """Chunk entry point: ``_sweep`` over the triples ``bounds`` = (start,
    stop) with the other inputs ``run_chunks`` shares.
    ``perfbench/tracing.py`` wraps it by name."""
    return _sweep(*bounds, *chunk_inputs())


def gamma3d_matrices(tables: BasisTables, mapping: ModeMapping,
                     grid: RadialGrid, h2_mode: str = "gosper",
                     integrators: tuple[str, ...] = tuple(INTEGRATORS),
                     block: int = DEFAULT_BLOCK, workers: int = 1,
                     domain: TriangularDomain | None = None
                     ) -> list[GammaMatrix]:
    """Blocked sweep of the flattened triple space, one matrix for each of
    ``integrators`` from a single pass over the triples.

    The space is statically partitioned into contiguous per-worker chunks
    of whole blocks, balanced by their triple counts; each worker
    accumulates its own matrices block by block, and these are summed once
    in worker order.  Bitwise reproducible for a fixed (workers, block)
    pair.  A ``domain`` whose l range differs from the tables', an unknown
    ``h2_mode``, no or an unknown integrator, and a block whose working
    arrays (``_block_bytes``, bounded however large R is) would exceed
    ``MEMORY_BUDGET`` are refused before any sweep starts.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    if domain is None:
        domain = enumerate_domain(tables.l_min, tables.l_max)
    if (domain.l_min, domain.l_max) != (tables.l_min, tables.l_max):
        raise ValueError(
            f"domain covers l {domain.l_min}..{domain.l_max} but the tables "
            f"cover l {tables.l_min}..{tables.l_max}")
    if h2_mode not in H2_MODES:
        raise ValueError(f"unknown h2_mode {h2_mode!r}")
    if not integrators:
        raise ValueError("need at least one integrator")
    wr2 = np.stack([integration_weights(grid.r, name) * grid.r**2
                    for name in integrators])
    meta = _base_meta(tables, grid, mapping, "modal3d", None,
                      {"h2_mode": h2_mode, "block": int(block),
                       "workers": int(workers)})
    b = min(block, domain.count)
    need = _block_bytes(tables.p_max, mapping.n_max, tables.n_radial, b,
                        len(wr2))
    if need > MEMORY_BUDGET:
        raise MemoryError(
            f"a block of {b} triples needs {need} bytes but the budget "
            f"allows {MEMORY_BUDGET}")
    # chunks of whole blocks: a block's triples do not depend on workers;
    # no worker is forked for an empty chunk, and an empty domain sweeps
    # its empty range in this process
    sizes = [min(block, domain.count - b0)
             for b0 in range(0, domain.count, block)]
    ranges = [(start * block, min(stop * block, domain.count))
              for start, stop in make_weighted_plan(sizes, workers)
              if start < stop] or [(0, 0)]
    partials = run_chunks(get_context, _sweep_chunk, ranges,
                          (tables, mapping, wr2, domain, h2_mode, block))
    values = partials[0]
    for part in partials[1:]:
        values += part
    return [GammaMatrix(v, dict(meta, integrator=name))
            for name, v in zip(integrators, values)]


def gamma3d_matrix(tables: BasisTables, mapping: ModeMapping,
                   grid: RadialGrid, h2_mode: str = "gosper",
                   integrator: str = "trap", block: int = DEFAULT_BLOCK,
                   workers: int = 1,
                   domain: TriangularDomain | None = None) -> GammaMatrix:
    """The one-integrator :func:`gamma3d_matrices`, with its refusals."""
    return gamma3d_matrices(tables, mapping, grid, h2_mode, (integrator,),
                            block, workers, domain)[0]


def gamma3d_naive(tables: BasisTables, mapping: ModeMapping,
                  grid: RadialGrid, h2_mode: str = "gosper",
                  integrator: str = "trap") -> GammaMatrix:
    """Literal original loop structure, kept permanently as the oracle.

    Primordial mode outer, triangular multipole loops with permutation
    multiplicity, inner late-mode loop accumulating a per-row vector.
    Single-threaded.
    """
    domain = enumerate_domain(tables.l_min, tables.l_max)
    n_max = mapping.n_max
    values = np.zeros((n_max, n_max))
    for n_prime in range(n_max):
        mvec = np.zeros(n_max)
        for t in range(domain.count):
            l1, l2, l3 = domain.triple(t)
            x = radial_integral_x(l1, l2, l3, n_prime, tables, mapping,
                                  grid, integrator)
            mult = permutation_multiplicity(l1, l2, l3)
            z = geometric_prefactor(l1, l2, l3, tables.C, tables.v,
                                    tables.l_min, h2_mode) * mult
            for m in range(n_max):
                y = late_product_y(l1, l2, l3, m, tables, mapping)
                mvec[m] += x * y * z
        values[:, n_prime] = mvec
    meta = _base_meta(tables, grid, mapping, "modal3d-naive", integrator,
                      {"h2_mode": h2_mode, "block": 1, "workers": 1})
    return GammaMatrix(values, meta)


def gamma3d_unordered_reference(tables: BasisTables, mapping: ModeMapping,
                                grid: RadialGrid, h2_mode: str = "gosper",
                                integrator: str = "trap") -> GammaMatrix:
    """Full unordered triple sum, no ordering and no multiplicity.

    Validates that the ordered enumeration with permutation multiplicity
    is exact.  Cost grows with the cube of the multipole range; intended
    for small validation runs only.
    """
    n_max = mapping.n_max
    values = np.zeros((n_max, n_max))
    lo, hi = tables.l_min, tables.l_max
    for l1 in range(lo, hi + 1):
        for l2 in range(lo, hi + 1):
            for l3 in range(lo, hi + 1):
                if not theta_indicator(l1, l2, l3):
                    continue
                z = geometric_prefactor(l1, l2, l3, tables.C, tables.v,
                                        tables.l_min, h2_mode)
                x = np.array([radial_integral_x(l1, l2, l3, np_, tables,
                                                mapping, grid, integrator)
                              for np_ in range(n_max)])
                y = np.array([late_product_y(l1, l2, l3, m, tables, mapping)
                              for m in range(n_max)])
                values += z * np.outer(y, x)
    meta = _base_meta(tables, grid, mapping, "modal3d-unordered", integrator,
                      {"h2_mode": h2_mode, "block": 1, "workers": 1})
    return GammaMatrix(values, meta)
