import math
import multiprocessing
from fractions import Fraction

import numpy as np
import pytest

import cmbproj as cp
from cmbproj.engine2d import default_mu_points


class Problem:
    """One fully-constructed desk-scale problem instance."""

    def __init__(self, l_min, l_max, p_max, n_r, n_mu=None):
        self.l_min = l_min
        self.l_max = l_max
        self.p_max = p_max
        self.grid = cp.default_radial_grid(n_r)
        self.tables = cp.synthesize_basis(p_max, l_min, l_max, self.grid)
        self.mapping = cp.default_mode_mapping(p_max)
        self.rule = cp.gauss_legendre(n_mu or default_mu_points(l_max))
        self.legendre = cp.legendre_table(l_max, self.rule)


def wigner3j_squared_exact(l1, l2, l3):
    """Independent oracle: Racah closed form for the (0,0,0) 3j symbol,
    evaluated in exact rational arithmetic via integer factorials."""
    L = l1 + l2 + l3
    if L % 2 == 1:
        return Fraction(0)
    if l3 > l1 + l2 or l2 > l1 + l3 or l1 > l2 + l3:
        return Fraction(0)
    g = L // 2
    f = math.factorial
    return (Fraction(f(L - 2 * l1) * f(L - 2 * l2) * f(L - 2 * l3), f(L + 1))
            * Fraction(f(g), f(g - l1) * f(g - l2) * f(g - l3)) ** 2)


def h2_oracle(l1, l2, l3):
    return float(wigner3j_squared_exact(l1, l2, l3)) \
        * (2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4 * math.pi)


class RecordingContext:
    """Stand-in for an engine's ``get_context``: a real pool whose ``map``
    appends every job to ``jobs`` first and every result to ``results``
    after."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.results = []

    def __call__(self, method):
        self.ctx = multiprocessing.get_context(method)
        return self

    def Pool(self, *args, **kwargs):
        pool = self.ctx.Pool(*args, **kwargs)
        real_map = pool.map

        def map(fn, jobs):
            self.jobs.extend(jobs)
            results = real_map(fn, jobs)
            self.results.extend(results)
            return results
        pool.map = map
        return pool


class NoPool:
    """Stand-in for an engine's ``get_context`` whose ``Pool`` raises, so
    a run that would fork a worker fails."""

    def __call__(self, method):
        return self

    def Pool(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")


@pytest.fixture(scope="session")
def desk():
    """Small instance used by most engine tests."""
    return Problem(l_min=2, l_max=16, p_max=3, n_r=54)


@pytest.fixture(scope="session")
def desk32():
    """The acceptance-scale instance (l_max=32, p_max=4, R=216)."""
    return Problem(l_min=2, l_max=32, p_max=4, n_r=216, n_mu=50)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
