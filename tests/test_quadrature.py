import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

import cmbproj as cp
from cmbproj.quadrature import INTEGRATORS, integration_weights


class TestGaussLegendre:
    def test_n1(self):
        rule = cp.gauss_legendre(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_n2_analytic(self):
        rule = cp.gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3),
                                            1 / math.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_n3_analytic(self):
        rule = cp.gauss_legendre(3)
        assert rule.nodes == pytest.approx([-math.sqrt(0.6), 0.0,
                                            math.sqrt(0.6)], abs=1e-15)
        assert rule.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], abs=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16, 49, 128, 501])
    def test_against_numpy_leggauss(self, n):
        rule = cp.gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.allclose(rule.nodes, x_ref, atol=5e-15)
        assert np.allclose(rule.weights, w_ref, atol=5e-15)

    @pytest.mark.parametrize("n", [4, 17, 200])
    def test_structure(self, n):
        rule = cp.gauss_legendre(n)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        # exact mirror symmetry, not just approximate
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert math.fsum(rule.weights) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 10, 37])
    def test_polynomial_exactness(self, n):
        # degree-(2n-1) monomials integrate exactly
        rule = cp.gauss_legendre(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = float(rule.weights @ rule.nodes**k)
            assert got == pytest.approx(exact, abs=1e-14)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            cp.gauss_legendre(0)

    def test_rejects_bad_n_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                cp.gauss_legendre(0)

    @pytest.mark.parametrize("n", [1, 7])
    def test_arrays_read_only(self, n):
        rule = cp.gauss_legendre(n)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.5
        with pytest.raises(ValueError):
            rule.weights[0] = 0.5

    def test_rule_copies_and_freezes_its_input(self):
        nodes = np.array([-0.5, 0.5])
        rule = cp.QuadratureRule(nodes, np.ones(2))
        nodes[0] = 0.0
        assert rule.nodes.tolist() == [-0.5, 0.5]
        assert not rule.weights.flags.writeable


class TestLegendreTable:
    def test_low_orders(self):
        rule = cp.gauss_legendre(10)
        x = rule.nodes
        table = cp.legendre_table(3, rule)
        assert np.array_equal(table[0], np.ones_like(x))
        assert np.array_equal(table[1], x)
        assert np.allclose(table[2], 1.5 * x**2 - 0.5, atol=1e-15)
        assert np.allclose(table[3], 2.5 * x**3 - 1.5 * x, atol=1e-15)

    def test_orthogonality(self):
        # the table plus its own rule reproduces 2/(2l+1) delta_{ll'}
        rule = cp.gauss_legendre(40)
        table = cp.legendre_table(30, rule)
        gram = (table * rule.weights) @ table.T
        expected = np.diag(2.0 / (2 * np.arange(31) + 1))
        assert np.allclose(gram, expected, atol=1e-13)

    def test_endpoint_value_bound(self):
        rule = cp.gauss_legendre(64)
        table = cp.legendre_table(128, rule)
        assert np.max(np.abs(table)) <= 1.0 + 1e-12


def _grids():
    uniform = np.linspace(0.0, 3.0, 31)
    rng = np.random.default_rng(11)
    ragged = np.sort(rng.uniform(0.0, 3.0, 29))
    ragged[0], ragged[-1] = 0.0, 3.0
    return {"uniform": uniform, "ragged": ragged}


class TestIntegrators:
    @pytest.mark.parametrize("method", ["trap", "hermite", "spline"])
    @pytest.mark.parametrize("grid", _grids().values(), ids=_grids().keys())
    def test_linear_exact(self, method, grid):
        y = 2.0 * grid - 1.0
        # integral of 2r-1 over [0,3] is 6
        assert INTEGRATORS[method](grid, y) == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("grid", _grids().values(), ids=_grids().keys())
    def test_hermite_beats_trapezium_on_smooth(self, grid):
        y = np.sin(grid)
        exact = 1.0 - math.cos(3.0)
        err_trap = abs(cp.integrate_trapezium(grid, y) - exact)
        err_herm = abs(cp.integrate_hermite(grid, y) - exact)
        err_spl = abs(cp.integrate_spline(grid, y) - exact)
        assert err_herm < err_trap
        assert err_spl < err_trap

    def test_spline_cubic_example(self):
        # natural-boundary spline through r^3 on {0,1,2,3}: the analytic
        # value of the spline integral is 20.7 (a 2.22% error against the
        # true 81/4 -- natural ends flatten the cubic's curvature)
        r = np.arange(4.0)
        val = cp.integrate_spline(r, r**3)
        assert val == pytest.approx(20.7, rel=1e-13)
        ref = CubicSpline(r, r**3, bc_type="natural").integrate(0.0, 3.0)
        assert val == pytest.approx(ref, rel=1e-13)

    def test_hermite_quadratic_boundary_term(self):
        # quadratics are exact except for the clamped final slope, whose
        # missing correction is exactly h^3/6 for y = r^2 on a uniform grid
        r = np.linspace(0.0, 1.0, 101)
        h = r[1] - r[0]
        val = cp.integrate_hermite(r, r**2)
        assert val - 1.0 / 3.0 == pytest.approx(h**3 / 6.0, rel=1e-8)

    def test_minimum_lengths(self):
        with pytest.raises(ValueError):
            cp.integrate_trapezium([0.0], [1.0])
        with pytest.raises(ValueError):
            cp.integrate_hermite([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            cp.integrate_spline([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            cp.integrate_trapezium([0.0, 1.0, 2.0], [1.0, 1.0])

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=40),
           st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50)
    def test_linearity(self, ys, a, b):
        r = np.linspace(0.0, 1.0, len(ys))
        y = np.asarray(ys)
        z = np.cos(7.0 * r)
        for integrate in INTEGRATORS.values():
            combined = integrate(r, a * y + b * z)
            split = a * integrate(r, y) + b * integrate(r, z)
            assert combined == pytest.approx(split, abs=1e-9)


def _weight_grids():
    # plus the ends of the convergence ladder
    return {**_grids(), "R54": cp.default_radial_grid(54).r,
            "R1768": cp.default_radial_grid(1768).r}


class TestIntegrationWeights:
    @pytest.mark.parametrize("method", ["trap", "hermite", "spline"])
    @pytest.mark.parametrize("grid", _weight_grids().values(),
                             ids=_weight_grids().keys())
    def test_weights_reproduce_integrator(self, method, grid):
        w = integration_weights(grid, method)
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = rng.standard_normal(len(grid))
            direct = INTEGRATORS[method](grid, y)
            assert float(w @ y) == pytest.approx(direct, rel=1e-12,
                                                 abs=1e-12)

    def test_trap_weights_closed_form(self):
        r = np.array([0.0, 1.0, 3.0, 6.0])
        w = integration_weights(r, "trap")
        assert w == pytest.approx([0.5, 1.5, 2.5, 1.5], abs=1e-15)

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 3.0, 31),
                                      cp.default_radial_grid(216).r])
    def test_trap_weights_bitwise_unit_vectors(self, grid):
        # the trapezium weights equal, bit for bit, the integrator applied
        # to each unit vector, so the direct engine's trap matrices do not
        # depend on how the weights are built
        unit = np.empty(len(grid))
        e = np.zeros(len(grid))
        for i in range(len(grid)):
            e[i] = 1.0
            unit[i] = cp.integrate_trapezium(grid, e)
            e[i] = 0.0
        assert np.array_equal(integration_weights(grid, "trap"), unit)

    @pytest.mark.parametrize("method", ["trap", "hermite", "spline"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minimum_lengths_match_integrator(self, method, n):
        r = np.arange(float(n))
        try:
            expected = INTEGRATORS[method](r, r)
        except ValueError:
            with pytest.raises(ValueError, match="at least"):
                integration_weights(r, method)
        else:
            assert float(integration_weights(r, method) @ r) \
                == pytest.approx(expected, rel=1e-14)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown integrator"):
            integration_weights(np.arange(5.0), "simpson")


def _moment_matrix(h):
    """Dense natural-spline moment matrix of the interval widths h."""
    n = len(h) + 1
    a = np.eye(n)
    for k in range(1, n - 1):
        a[k, k - 1:k + 2] = h[k - 1], 2.0 * (h[k - 1] + h[k]), h[k]
    return a


class TestMomentSolve:
    @pytest.mark.parametrize("r", [
        np.array([0.0, 1.0, 3.0, 6.0]),
        np.array([0.0, 0.1, 0.7, 2.0, 2.2]),
        cp.default_radial_grid(12).r,
        cp.default_radial_grid(54).r,
        cp.default_radial_grid(216).r], ids=["R4", "R5", "R12", "R54", "R216"])
    def test_matches_dense_solve(self, r):
        from cmbproj.quadrature import _moment_solve
        h = np.diff(r)
        rng = np.random.default_rng(len(r))
        b = np.zeros(len(r))
        b[1:-1] = rng.standard_normal(len(r) - 2)
        got = _moment_solve(h, b)
        ref = np.linalg.solve(_moment_matrix(h), b)
        assert got[0] == got[-1] == 0.0
        # the pivoted dense LU itself rounds up to ~1.2e-13 of scale off
        # on the 12-point grid, whose widths jump from 4417 to 300
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_r", [54, 1768])
    def test_spline_matches_scipy_cubic_spline(self, n_r):
        r = cp.default_radial_grid(n_r).r
        rng = np.random.default_rng(n_r)
        for _ in range(3):
            y = rng.standard_normal(n_r)
            ref = CubicSpline(r, y, bc_type="natural").integrate(r[0], r[-1])
            assert cp.integrate_spline(r, y) == pytest.approx(ref, rel=1e-12)

    def test_import_loads_no_scipy(self):
        # the package needs numpy only; scipy is a test dependency
        import os
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(cp.__file__))
        code = ("import sys, cmbproj, cmbproj.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
