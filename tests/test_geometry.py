import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cmbproj as cp
from cmbproj.gamma import MEMORY_BUDGET
from cmbproj.geometry import _check_domain_budget, _triple_count
from conftest import h2_oracle, wigner3j_squared_exact


def brute_force_triples(l_min, l_max):
    return [(l1, l2, l3)
            for l1 in range(l_min, l_max + 1)
            for l2 in range(l1, l_max + 1)
            for l3 in range(l2, l_max + 1)
            if cp.theta_indicator(l1, l2, l3)]


class TestThetaIndicator:
    @pytest.mark.parametrize("triple,expected", [
        ((2, 2, 2), 1),
        ((2, 2, 3), 0),   # odd parity
        ((2, 2, 5), 0),   # triangle violation
        ((2, 2, 4), 1),   # degenerate edge
        ((3, 4, 5), 1),
    ])
    def test_examples(self, triple, expected):
        assert cp.theta_indicator(*triple) == expected

    def test_unordered_input(self):
        assert cp.theta_indicator(5, 2, 3) == 1
        assert cp.theta_indicator(5, 2, 2) == 0

    def test_vectorised(self):
        l = np.arange(2, 10)
        out = cp.theta_indicator(l, l, l)
        assert np.array_equal(out, (3 * l) % 2 == 0)


class TestH2Exact:
    def test_parity_zero(self):
        assert cp.h2_exact(2, 2, 3) == 0.0

    def test_triangle_zero(self):
        assert cp.h2_exact(2, 2, 6) == 0.0

    def test_equilateral_222(self):
        # 3j(2,2,2;0,0,0)^2 = 2/35
        assert wigner3j_squared_exact(2, 2, 2) == Fraction(2, 35)
        assert cp.h2_exact(2, 2, 2) == pytest.approx(25 / (14 * math.pi),
                                                     rel=1e-14)

    @pytest.mark.parametrize("triple", [(2, 2, 4), (2, 4, 4), (4, 6, 10),
                                        (10, 20, 30), (33, 41, 60)])
    def test_against_rational_oracle(self, triple):
        assert cp.h2_exact(*triple) == pytest.approx(h2_oracle(*triple),
                                                     rel=1e-14)

    def test_sympy_cross_check(self):
        wigner = pytest.importorskip("sympy.physics.wigner")
        for triple in [(2, 2, 2), (4, 6, 8), (12, 14, 20)]:
            ref = float(wigner.wigner_3j(*triple, 0, 0, 0) ** 2)
            assert wigner3j_squared_exact(*triple) == pytest.approx(ref,
                                                                    rel=1e-12)

    @pytest.mark.parametrize("l_max", [80, 240, 1000])
    def test_random_triples_to_working_precision(self, l_max):
        rng = np.random.default_rng(l_max)
        t = rng.integers(2, l_max + 1, size=(400, 3))
        t = t[cp.theta_indicator(t[:, 0], t[:, 1], t[:, 2]) == 1]
        assert len(t) > 50
        got = cp.h2_exact(t[:, 0], t[:, 1], t[:, 2])
        ref = np.array([h2_oracle(*map(int, row)) for row in t])
        assert np.max(np.abs(got / ref - 1)) <= 1e-14

    def test_large_l_no_overflow(self):
        val = cp.h2_exact(5000, 5000, 5000)
        assert np.isfinite(val) and val > 0

    @given(st.integers(2, 40), st.integers(2, 40), st.integers(2, 40))
    def test_permutation_symmetry(self, l1, l2, l3):
        vals = {cp.h2_exact(*p) for p in permutations((l1, l2, l3))}
        assert max(vals) - min(vals) <= 4 * 2.0**-52 * max(vals)


class TestH2Gosper:
    def test_222_value_and_error(self):
        # hand evaluation of the closed form at the smallest triple
        L, Li = 6.0, 2.0
        by_hand = (1 / (2 * math.pi**2)) \
            * (125 * (L + 1 / 3)) / ((L + 1) * (Li + 1 / 3) ** 3) \
            * math.sqrt((Li + 1 / 6) ** 3 / (L + 1 / 6))
        assert cp.h2_gosper(2, 2, 2) == pytest.approx(by_hand, rel=1e-14)
        rel_err = cp.h2_gosper(2, 2, 2) / cp.h2_exact(2, 2, 2) - 1
        assert abs(rel_err) == pytest.approx(0.019, abs=0.002)

    def test_moderate_l_accuracy(self):
        rel = cp.h2_gosper(30, 30, 30) / cp.h2_exact(30, 30, 30) - 1
        assert abs(rel) < 0.005

    def test_degenerate_edge_finite(self):
        # L1 = 0 at (2,2,4): formula has no pole there
        val = cp.h2_gosper(2, 2, 4)
        assert np.isfinite(val) and val > 0

    def test_error_scan(self):
        # The approximation error is controlled by the triangle slack
        # L_i = L - 2 l_i, not by the multipoles themselves: flattened
        # triples (l3 = l1 + l2) keep a ~2.3% error at any scale.
        for l1, l2, l3 in brute_force_triples(2, 64):
            rel = cp.h2_gosper(l1, l2, l3) / cp.h2_exact(l1, l2, l3) - 1
            assert abs(rel) < 0.025
            L = l1 + l2 + l3
            if min(L - 2 * l1, L - 2 * l2, L - 2 * l3) >= 20:
                assert abs(rel) < 0.005

    def test_equilateral_error_decreasing(self):
        errors = [abs(cp.h2_gosper(l, l, l) / cp.h2_exact(l, l, l) - 1)
                  for l in range(2, 66, 2)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    @given(st.integers(2, 40), st.integers(2, 40), st.integers(2, 40))
    def test_permutation_symmetry(self, l1, l2, l3):
        # the formula is only guaranteed finite on triangle-closing triples
        if max(l1, l2, l3) * 2 > l1 + l2 + l3:
            return
        vals = [cp.h2_gosper(*p) for p in permutations((l1, l2, l3))]
        assert np.ptp(vals) <= 1e-13 * max(abs(v) for v in vals)


class TestPermutationMultiplicity:
    @pytest.mark.parametrize("triple,expected", [
        ((2, 2, 2), 1), ((2, 2, 4), 3), ((2, 4, 4), 3), ((2, 3, 5), 6),
    ])
    def test_examples(self, triple, expected):
        assert cp.permutation_multiplicity(*triple) == expected

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            cp.permutation_multiplicity(3, 2, 4)

    def test_counts_distinct_orderings(self):
        for t in [(2, 2, 2), (2, 2, 4), (2, 3, 5)]:
            assert cp.permutation_multiplicity(*t) \
                == len(set(permutations(t)))


class TestGeometricPrefactor:
    def test_identity_with_gosper(self):
        # z * 36 v1 v2 v3 sqrt(C1 C2 C3) == h2_gosper for all valid triples
        l_max = 64
        rng = np.random.default_rng(7)
        C = rng.uniform(0.5, 2.0, l_max - 1)
        v = rng.uniform(0.5, 2.0, l_max - 1)
        for l1, l2, l3 in brute_force_triples(2, l_max):
            z = cp.geometric_prefactor(l1, l2, l3, C, v, l_min=2)
            i1, i2, i3 = l1 - 2, l2 - 2, l3 - 2
            recon = z * 36 * v[i1] * v[i2] * v[i3] \
                * math.sqrt(C[i1] * C[i2] * C[i3])
            assert recon == pytest.approx(cp.h2_gosper(l1, l2, l3),
                                          rel=1e-14)

    def test_222_unit_weights(self):
        ones = np.ones(1)
        z = cp.geometric_prefactor(2, 2, 2, ones, ones, l_min=2)
        assert z == pytest.approx(cp.h2_gosper(2, 2, 2) / 36, rel=1e-15)
        assert z == pytest.approx(0.016088, abs=2e-6)

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(ValueError):
            cp.geometric_prefactor(2, 2, 2, np.zeros(1), np.ones(1), l_min=2)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_v(self, bad):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="v_l"):
            cp.geometric_prefactor(2, 2, 2, ones, [bad, 1.0, 1.0], l_min=2)

    def test_exact_mode_uses_exact_weight(self):
        C = np.linspace(0.5, 2.0, 9)
        v = np.linspace(1.5, 0.5, 9)
        for l1, l2, l3 in brute_force_triples(2, 10):
            gosper = cp.geometric_prefactor(l1, l2, l3, C, v, l_min=2)
            exact = cp.geometric_prefactor(l1, l2, l3, C, v, l_min=2,
                                           h2_mode="exact")
            assert exact / gosper == pytest.approx(
                cp.h2_exact(l1, l2, l3) / cp.h2_gosper(l1, l2, l3),
                rel=1e-14)

    def test_rejects_unknown_mode(self):
        ones = np.ones(1)
        with pytest.raises(ValueError, match="h2_mode"):
            cp.geometric_prefactor(2, 2, 2, ones, ones, l_min=2,
                                   h2_mode="bogus")

    # tables for l 2..6
    @pytest.mark.parametrize("triple", [
        (1, 2, 2), (2, 2, 7), (2, 7, 2), (7, 2, 2), (0, 4, 4),
        (np.array([2, 1]), np.array([2, 2]), np.array([2, 2]))])
    def test_rejects_l_outside_tables(self, triple):
        ones = np.ones(5)
        with pytest.raises(ValueError, match=r"range 2\.\.6"):
            cp.geometric_prefactor(*triple, ones, ones, l_min=2)

    @pytest.mark.parametrize("triple", [(2, 2, 2), (6, 6, 6), (2, 4, 6)])
    def test_accepts_first_and_last_l(self, triple):
        ones = np.ones(5)
        z = cp.geometric_prefactor(*triple, ones, ones, l_min=2)
        assert z == pytest.approx(cp.h2_gosper(*triple) / 36, rel=1e-15)


class TestEnumerateDomain:
    def test_l_max_4(self):
        d = cp.enumerate_domain(2, 4)
        assert d.count == 6
        triples = [d.triple(i) for i in range(d.count)]
        assert triples == [(2, 2, 2), (2, 2, 4), (2, 3, 3), (2, 4, 4),
                           (3, 3, 4), (4, 4, 4)]

    def test_first_index(self):
        assert cp.enumerate_domain(2, 10).triple(0) == (2, 2, 2)

    def test_single_triple(self):
        d = cp.enumerate_domain(2, 2)
        assert d.count == 1 and d.triple(0) == (2, 2, 2)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            cp.enumerate_domain(1, 4)
        with pytest.raises(ValueError):
            cp.enumerate_domain(8, 4)

    @pytest.mark.parametrize("l_min,l_max", [
        *(pytest.param(2, l_max, id=str(l_max))
          for l_max in (2, 3, 5, 8, 13, 21, 40, 64)),
        (3, 17), (4, 21), (7, 40), (3, 3), (4, 4), (7, 7), (7, 8)])
    def test_matches_brute_force(self, l_min, l_max):
        d = cp.enumerate_domain(l_min, l_max)
        expected = brute_force_triples(l_min, l_max)
        assert d.count == len(expected)
        got = list(zip(d.l1.tolist(), d.l2.tolist(), d.l3.tolist()))
        assert got == expected

    def test_count_in_closed_form(self):
        for l_max in range(2, 61):
            for l_min in range(2, l_max + 1):
                assert _triple_count(l_min, l_max) \
                    == cp.enumerate_domain(l_min, l_max).count

    @pytest.mark.parametrize("l_min", [2, 100])
    def test_enumeration_peak_within_bound(self, l_min):
        tracemalloc.start()
        try:
            cp.enumerate_domain(l_min, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _check_domain_budget(l_min, 200)

    def test_over_budget_refused_before_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the triple domain was enumerated")
        monkeypatch.setattr(np, "triu_indices", refuse)
        with pytest.raises(MemoryError, match="budget allows"):
            cp.enumerate_domain(2, 2000)

    def test_benchmark_sizes_never_refused(self):
        # every workload stays at l_max <= 80; the widest l range is the
        # largest domain
        assert _check_domain_budget(2, 80) < MEMORY_BUDGET // 1000
        assert cp.enumerate_domain(2, 80).count == 23661

    def test_enumerated_triples_are_valid_and_ordered(self):
        d = cp.enumerate_domain(3, 40)
        assert np.all(d.l1 <= d.l2) and np.all(d.l2 <= d.l3)
        assert np.all(cp.theta_indicator(d.l1, d.l2, d.l3) == 1)

    def test_zero_h2_triples_absent(self):
        # structural theta vs h2: every theta=0 triple has h2 exactly 0,
        # every enumerated triple has h2 > 0
        l_max = 64
        d = cp.enumerate_domain(2, l_max)
        in_domain = set(zip(d.l1.tolist(), d.l2.tolist(), d.l3.tolist()))
        for l1 in range(2, l_max + 1):
            for l2 in range(l1, l_max + 1):
                for l3 in range(l2, min(l1 + l2, l_max) + 1):
                    h2 = cp.h2_exact(l1, l2, l3)
                    if (l1, l2, l3) in in_domain:
                        assert h2 > 0
                    else:
                        assert h2 == 0.0
