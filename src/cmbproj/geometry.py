"""Geometric weights and the sparse triangular multipole domain.

The coupling of three multipoles (l1, l2, l3) on the sphere is weighted by
h^2, the squared (0,0,0)-column Wigner 3j symbol times (2l+1) factors.
h^2 vanishes unless the multipoles close into a triangle and their sum is
even; ``h2_exact`` gives it to a few ulp, ``h2_gosper`` approximates it.
Everything here is a pure function of the multipoles (plus optional
per-l weight tables), vectorised over numpy arrays where useful.
"""

from __future__ import annotations

import numpy as np

from .gamma import _check_budget

__all__ = [
    "H2_MODES",
    "theta_indicator",
    "h2_exact",
    "h2_gosper",
    "permutation_multiplicity",
    "geometric_prefactor",
    "TriangularDomain",
    "enumerate_domain",
]

# the h^2 weights ``geometric_prefactor`` can apply, by name
H2_MODES = ("gosper", "exact")


def theta_indicator(l1, l2, l3):
    """Top-hat indicator: 1 where (l1,l2,l3) closes a triangle and the sum
    is even, 0 elsewhere.  Accepts scalars or broadcastable arrays."""
    l1 = np.asarray(l1, dtype=np.int64)
    l2 = np.asarray(l2, dtype=np.int64)
    l3 = np.asarray(l3, dtype=np.int64)
    L = l1 + l2 + l3
    ok = (L % 2 == 0)
    ok &= (l3 <= l1 + l2) & (l2 <= l1 + l3) & (l1 <= l2 + l3)
    out = ok.astype(np.int64)
    return out if out.ndim else int(out)


def h2_exact(l1, l2, l3):
    """Exact geometric weight h^2 = (2l1+1)(2l2+1)(2l3+1)/(4pi) * 3j(l;000)^2.

    With g = (l1+l2+l3)/2 and kappa[n] = C(2n, n)/4^n, the running product
    of (2k-1)/(2k) over k <= n, 3j(l;000)^2 = kappa[g-l1] kappa[g-l2]
    kappa[g-l3] / ((2g+1) kappa[g]).  No factor exceeds 1, so any
    multipole stays in range, and no logarithm costs accuracy.  Returns
    exactly 0 where the triangle or parity condition fails.
    """
    l1 = np.asarray(l1, dtype=np.int64)
    l2 = np.asarray(l2, dtype=np.int64)
    l3 = np.asarray(l3, dtype=np.int64)
    scalar = l1.ndim == 0 and l2.ndim == 0 and l3.ndim == 0
    l1, l2, l3 = np.atleast_1d(l1, l2, l3)
    l1, l2, l3 = np.broadcast_arrays(l1, l2, l3)

    theta = np.asarray(theta_indicator(l1, l2, l3), dtype=bool)
    out = np.zeros(l1.shape)
    if np.any(theta):
        a, b, c = l1[theta], l2[theta], l3[theta]
        g = (a + b + c) // 2
        k = np.arange(1, int(g.max()) + 1)
        kappa = np.cumprod(np.r_[1.0, (2 * k - 1) / (2 * k)])
        threej2 = (kappa[g - a] * kappa[g - b] * kappa[g - c]
                   / ((2 * g + 1) * kappa[g]))
        pref = (2 * a + 1) * (2 * b + 1) * (2 * c + 1) / (4.0 * np.pi)
        out[theta] = pref * threej2
    return float(out[0]) if scalar else out.reshape(np.shape(theta))


def h2_gosper(l1, l2, l3):
    """Gosper closed-form approximation to h^2.

    Evaluates the factorial-free formula unconditionally; the caller is
    responsible for gating on ``theta_indicator`` (the formula itself is
    finite and positive whenever the triangle condition holds, including
    the degenerate edges L_i = 0).
    """
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    l3 = np.asarray(l3, dtype=np.float64)
    L = l1 + l2 + l3
    L1 = L - 2 * l1
    L2 = L - 2 * l2
    L3 = L - 2 * l3
    main = (
        (2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) * (L + 1.0 / 3.0)
        / ((L + 1) * (L1 + 1.0 / 3.0) * (L2 + 1.0 / 3.0) * (L3 + 1.0 / 3.0))
    )
    root = np.sqrt((L1 + 1.0 / 6.0) * (L2 + 1.0 / 6.0) * (L3 + 1.0 / 6.0)
                   / (L + 1.0 / 6.0))
    out = main * root / (2.0 * np.pi**2)
    return float(out) if out.ndim == 0 else out


def permutation_multiplicity(l1, l2, l3):
    """Number of distinct orderings of an ordered triple l1 <= l2 <= l3:
    1 (all equal), 3 (one pair) or 6 (all distinct)."""
    l1 = np.asarray(l1, dtype=np.int64)
    l2 = np.asarray(l2, dtype=np.int64)
    l3 = np.asarray(l3, dtype=np.int64)
    if np.any(l1 > l2) or np.any(l2 > l3):
        raise ValueError("permutation_multiplicity requires l1 <= l2 <= l3")
    out = np.where(l1 == l3, 1, np.where((l1 == l2) | (l2 == l3), 3, 6))
    return int(out) if out.ndim == 0 else out


def geometric_prefactor(l1, l2, l3, C, v, l_min=0, h2_mode="gosper"):
    """Per-triple prefactor z of the direct (3D) projection sum.

    z = h^2 / (36 v1 v2 v3 sqrt(C1 C2 C3)), with h^2 the weight of
    ``h2_mode``, one of ``H2_MODES``: ``h2_gosper`` or ``h2_exact``.
    ``C`` and ``v`` are tables indexed by physical l minus ``l_min``; a
    multipole outside them is refused.
    """
    C = np.asarray(C, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(C <= 0):
        raise ValueError("power spectrum C_l must be strictly positive")
    if np.any(v <= 0):
        raise ValueError("v_l must be strictly positive")
    i1 = np.asarray(l1) - l_min
    i2 = np.asarray(l2) - l_min
    i3 = np.asarray(l3) - l_min
    n_l = min(len(C), len(v))
    if (min(i1.min(), i2.min(), i3.min()) < 0
            or max(i1.max(), i2.max(), i3.max()) >= n_l):
        raise ValueError(f"multipoles must lie in the tables' range "
                         f"{l_min}..{l_min + n_l - 1}")
    if h2_mode == "gosper":
        h2 = h2_gosper(l1, l2, l3)
    elif h2_mode == "exact":
        h2 = h2_exact(l1, l2, l3)
    else:
        raise ValueError(f"unknown h2_mode {h2_mode!r}")
    out = h2 / (36.0 * v[i1] * v[i2] * v[i3] * np.sqrt(C[i1] * C[i2] * C[i3]))
    return float(out) if np.ndim(out) == 0 else out


def _triple_count(l_min: int, l_max: int) -> int:
    """The domain's triple count in O(L) memory.  Per l1, each of the
    l2 <= l_max - l1 has l1//2 + 1 values of l3.  The M + 1 other l2,
    M = min(l_max - l1, l1 - 1), are cut at l_max and have floor((M+1)^2/4)
    values of l3 in all for odd l1, and floor(M^2/4) + M + 1 for even l1."""
    l1 = np.arange(l_min, l_max + 1, dtype=np.int64)
    uncut = np.maximum(l_max - 2 * l1 + 1, 0) * (l1 // 2 + 1)
    m = np.minimum(l_max - l1, l1 - 1)
    cut = np.where(l1 % 2, (m + 1) ** 2 // 4, m * m // 4 + m + 1)
    return int(np.sum(uncut + cut))


def _check_domain_budget(l_min: int, l_max: int) -> int:
    """A bound on the enumeration's peak bytes: six int64 arrays of one
    entry per triple (48 bytes), eight of one entry per (l1, l2) pair and
    ``np.triu_indices``'s two L x L bool masks (under 34 L (L+1) bytes).
    Over ``MEMORY_BUDGET`` is refused."""
    n_l = l_max - l_min + 1
    return _check_budget("triple domain needs",
                         48 * _triple_count(l_min, l_max)
                         + 34 * n_l * (n_l + 1))


class TriangularDomain:
    """Flattened enumeration of all ordered valid triples in [l_min, l_max].

    A triple (l1, l2, l3) is enumerated iff l1 <= l2 <= l3, l3 <= l1 + l2
    and l1+l2+l3 is even.  The order is lexicographic in (l1, l2, l3) and
    defines a bijection between [0, count) and the triples.  The int64
    arrays l1, l2, l3 are built by a fixed number of numpy calls, whatever
    the number of (l1, l2) pairs, unless their peak would exceed
    ``MEMORY_BUDGET``: that raises MemoryError before they are allocated.
    """

    def __init__(self, l_min: int, l_max: int):
        if not 2 <= l_min <= l_max:
            raise ValueError("require 2 <= l_min <= l_max")
        _check_domain_budget(l_min, l_max)
        self.l_min = l_min
        self.l_max = l_max
        # every (l1, l2) pair with l1 <= l2, in lexicographic order
        i, j = np.triu_indices(l_max - l_min + 1)
        l1 = i.astype(np.int64) + l_min
        l2 = j.astype(np.int64) + l_min
        # l3 runs from the first value >= l2 with an even sum, in steps of
        # 2, to min(l1 + l2, l_max); stop >= start - 1, so counts >= 0
        start = l2 + l1 % 2
        counts = (np.minimum(l1 + l2, l_max) - start) // 2 + 1
        self.l1 = np.repeat(l1, counts)
        self.l2 = np.repeat(l2, counts)
        self.count = len(self.l1)
        # each triple's place in the l3 run of its pair
        rank = np.arange(self.count) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
        self.l3 = np.repeat(start, counts) + 2 * rank

    def triple(self, index: int) -> tuple[int, int, int]:
        """Ordered triple at a global flattened index."""
        return int(self.l1[index]), int(self.l2[index]), int(self.l3[index])

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"TriangularDomain(l_min={self.l_min}, l_max={self.l_max}, "
                f"count={self.count})")


def enumerate_domain(l_min: int, l_max: int) -> TriangularDomain:
    """Build the flattened ordered-triple domain for [l_min, l_max]."""
    return TriangularDomain(l_min, l_max)
