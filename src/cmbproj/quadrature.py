"""1D integration machinery.

Gauss-Legendre rules are generated by Newton iteration on the Legendre
recurrence that also fills the Legendre tables, starting from the
Chebyshev-angle asymptotic guesses; this gives node accuracy at the
couple-of-ulp level, which the separable projection path needs (its mu
integral reconstructs a step function and is extremely sensitive to
quadrature error).  A rule is computed afresh on every call and its
arrays are read-only; ``harness`` keeps the rules a run reuses.

Radial integrals over the nonuniform grid come in three flavours:
trapezium, Hermite-cubic (trapezium plus a secant-slope correction term)
and a natural-cubic-spline gold standard.  All integrator sums are
accumulated with math.fsum so the result is independent of clever
re-association and correctly rounded; they are the oracles for the
engines' weight vectors, which ``integration_weights`` builds in closed
form in O(R): trapezium weights from the interval widths, the Hermite
correction as a linear form in the secant slopes, and the spline
correction from one tridiagonal solve with the moment matrix.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "legendre_table",
    "integrate_trapezium",
    "integrate_hermite",
    "integrate_spline",
    "integration_weights",
    "INTEGRATORS",
]

_NEWTON_CAP = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1], held as read-only
    float64 copies so that a shared rule cannot be changed."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            array = np.array(getattr(self, name), dtype=np.float64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return len(self.nodes)


def gauss_legendre(n: int) -> QuadratureRule:
    """n-node Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of P_n, converged by Newton iteration; weights are
    w = 2 / ((1 - x^2) P_n'(x)^2).  The rule is computed on every call,
    and its arrays are read-only.  Raises ValueError for n < 1, and
    RuntimeError if any node fails to converge within the iteration cap
    (must not happen for n <= 16384).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return QuadratureRule(np.zeros(1), np.full(1, 2.0))
    b = np.arange(n, dtype=np.float64)
    x = np.cos(np.pi * (4 * b + 3) / (4 * n + 2))
    for _ in range(_NEWTON_CAP):
        p, dp = _pn_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            # one clean-up step past the convergence check
            p, dp = _pn_and_derivative(n, x)
            x = x - p / dp
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration failed at n={n}")
    x = np.sort(x)
    # enforce the exact symmetry x_b = -x_{n-1-b}
    x = 0.5 * (x - x[::-1])
    _, dp = _pn_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    return QuadratureRule(x, w)


def _legendre_recurrence(n: int, x: np.ndarray):
    """Yield P_0 .. P_{n-1} at every point of ``x``, one row at a time, by
    the upward three-term recurrence."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for l in range(n):
        if l:
            prev, cur = cur, ((2 * l - 1) * x * cur - (l - 1) * prev) / l
        yield cur


def _pn_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x), from the last two rows of the recurrence; only
    two rows are held at a time, however large n is."""
    p_prev, p = deque(_legendre_recurrence(n + 1, x), maxlen=2)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _legendre_rows(n: int, x: np.ndarray) -> np.ndarray:
    """P_0 .. P_{n-1} at every point of ``x``, shape [n, len(x)]."""
    table = np.empty((n, len(x)))
    for l, row in enumerate(_legendre_recurrence(n, x)):
        table[l] = row
    return table


def legendre_table(l_max: int, rule: QuadratureRule) -> np.ndarray:
    """P_l at every node, shape [l_max+1, n], by the upward recurrence."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    return _legendre_rows(l_max + 1, rule.nodes)


def _check_lengths(r, y, minimum):
    r = np.asarray(r, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if r.shape != y.shape:
        raise ValueError(f"sample length {y.shape} != grid length {r.shape}")
    if len(r) < minimum:
        raise ValueError(f"need at least {minimum} samples")
    return r, y


def integrate_trapezium(r, y) -> float:
    """Trapezium rule on a (possibly nonuniform) increasing grid."""
    r, y = _check_lengths(r, y, 2)
    dr = np.diff(r)
    return math.fsum(0.5 * dr * (y[:-1] + y[1:]))


def integrate_hermite(r, y) -> float:
    """Hermite-cubic integrator with forward-secant slopes.

    Per interval k: (dr_k/2) [y_k + y_{k+1} + (dr_k/6)(s_k - s_{k+1})]
    with s_k the forward secant; the out-of-range slope at the final
    interval is clamped to the last in-range secant, so the final
    interval's correction is zero.
    """
    r, y = _check_lengths(r, y, 3)
    dr = np.diff(r)
    s = np.diff(y) / dr
    s_next = np.append(s[1:], s[-1])
    terms = 0.5 * dr * (y[:-1] + y[1:] + dr / 6.0 * (s - s_next))
    return math.fsum(terms)


def _moment_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A m = b (b = B y, B the second differences of
    ``_natural_spline_moments``, ends zero) for the natural-spline moment
    matrix A of the widths h: interior rows h_{k-1} m_{k-1} + 2 (h_{k-1} +
    h_k) m_k + h_k m_{k+1}, end rows m_0 = m_{n-1} = 0.  The interior block
    is symmetric and strictly diagonally dominant, so a Thomas sweep needs
    no pivoting."""
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    off = h[1:-1].tolist()
    x = b[1:-1].tolist()
    for k in range(1, len(diag)):
        f = off[k - 1] / diag[k - 1]
        diag[k] -= f * off[k - 1]
        x[k] -= f * x[k - 1]
    x[-1] /= diag[-1]
    for k in range(len(diag) - 2, -1, -1):
        x[k] = (x[k] - off[k] * x[k + 1]) / diag[k]
    return np.concatenate(([0.0], x, [0.0]))


def _natural_spline_moments(r, y) -> np.ndarray:
    """Second derivatives of the natural cubic spline through (r, y)."""
    n = len(r)
    h = np.diff(r)
    rhs = np.zeros(n)
    rhs[1:-1] = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    return _moment_solve(h, rhs)


def integrate_spline(r, y) -> float:
    """Natural cubic spline through all samples, integrated analytically.

    The gold standard for the integrator accuracy studies.
    """
    r, y = _check_lengths(r, y, 4)
    m = _natural_spline_moments(r, y)
    h = np.diff(r)
    terms = 0.5 * h * (y[:-1] + y[1:]) - h**3 / 24.0 * (m[:-1] + m[1:])
    return math.fsum(terms)


INTEGRATORS = {
    "trap": integrate_trapezium,
    "hermite": integrate_hermite,
    "spline": integrate_spline,
}


def _trapezium_weights(dr: np.ndarray) -> np.ndarray:
    w = np.zeros(len(dr) + 1)
    w[:-1] += 0.5 * dr
    w[1:] += 0.5 * dr
    return w


def _hermite_weights(dr: np.ndarray) -> np.ndarray:
    """Trapezium weights plus the linear form of
    sum_{k<n-2} (dr_k^2/12)(s_k - s_{k+1}), s_k = (y_{k+1} - y_k)/dr_k."""
    c = dr[:-1] ** 2 / 12.0
    g = np.zeros_like(dr)            # coefficient of s_k
    g[:-1] += c
    g[1:] -= c
    t = g / dr
    w = _trapezium_weights(dr)
    w[1:] += t
    w[:-1] -= t
    return w


def _spline_weights(dr: np.ndarray) -> np.ndarray:
    """Trapezium weights minus B^T u, where A^T u = c and
    c_k = (h_{k-1}^3 + h_k^3)/24: the spline's correction -c . m with
    m = A^-1 B y, moved onto y.  The natural end moments are zero, so
    only the interior of c counts; with its ends set to zero, A u = c has
    the same interior solution as A^T u = c, because A's interior block
    is symmetric and its end rows do not couple back into it."""
    c = np.zeros(len(dr) + 1)
    c[1:-1] = (dr[:-1] ** 3 + dr[1:] ** 3) / 24.0
    v = 6.0 * _moment_solve(dr, c)[1:-1]
    fwd = v / dr[1:]
    back = v / dr[:-1]
    w = _trapezium_weights(dr)
    w[2:] -= fwd
    w[1:-1] += fwd + back
    w[:-2] -= back
    return w


_WEIGHTS = {
    "trap": (2, _trapezium_weights),
    "hermite": (3, _hermite_weights),
    "spline": (4, _spline_weights),
}


def integration_weights(r, method: str = "trap") -> np.ndarray:
    """Weight vector w with w . y == integrator(r, y) for every y.

    All three integrators are linear in the samples, so their action on a
    fixed grid is a dot product.  The weights are built in closed form in
    O(R) from the interval widths: the trapezium puts half of each width
    on either end of its interval, Hermite adds the linear form of its
    secant-slope correction and spline subtracts B^T u from one
    tridiagonal solve A^T u = c.  The oracle tests check them against the
    ``math.fsum`` integrators.
    """
    r = np.asarray(r, dtype=np.float64)
    try:
        minimum, weights = _WEIGHTS[method]
    except KeyError:
        raise ValueError(f"unknown integrator {method!r}") from None
    _check_lengths(r, r, minimum)
    return weights(np.diff(r))
