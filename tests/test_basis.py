import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import cmbproj as cp
from cmbproj.basis import (R_PEAK, R_SIGMA, MappingFormatError,
                           _check_mapping_budget, _check_table_budget,
                           _sha256, radial_peak_weight)
from cmbproj.gamma import MEMORY_BUDGET


class TestDefaultModeMapping:
    def test_printed_prefix(self):
        m = cp.default_mode_mapping(4)
        assert [m.triple(n) for n in range(6)] == [
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 2), (0, 1, 2)]

    @pytest.mark.parametrize("p,n", [(1, 1), (2, 4), (3, 10), (4, 20),
                                     (7, 84)])
    def test_size_is_tetrahedral(self, p, n):
        assert cp.default_mode_mapping(p).n_max == n
        assert n == math.comb(p + 2, 3)

    def test_prefix_property(self):
        small = cp.default_mode_mapping(4)
        big = cp.default_mode_mapping(5)
        assert big.entries[:small.n_max].tolist() == small.entries.tolist()

    def test_bijectivity(self):
        # n -> (i, j, k) hits every ordered triple below p_max exactly once
        m = cp.default_mode_mapping(5)
        triples = [m.triple(n) for n in range(m.n_max)]
        assert sorted(triples) == [(i, j, k) for i in range(5)
                                   for j in range(i, 5)
                                   for k in range(j, 5)]

    def test_rejects_bad_pmax(self):
        with pytest.raises(ValueError):
            cp.default_mode_mapping(0)

    def test_rejects_pmax_past_int64(self):
        # its fingerprint packs p_max as an int64
        with pytest.raises(ValueError, match="p_max must fit in int64"):
            cp.ModeMapping(np.array([[0, 0, 1]]), 2**70)
        assert cp.ModeMapping(np.array([[0, 0, 1]]),
                              2**63 - 1).fingerprint()

    @pytest.mark.parametrize("p_max", [20, 40, 80])
    def test_budget_counts_the_peak(self, p_max):
        tracemalloc.start()
        try:
            cp.default_mode_mapping(p_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = _check_mapping_budget(math.comb(p_max + 2, 3))
        assert peak <= count < 2.1 * peak

    def test_over_budget_refused_before_building(self, monkeypatch):
        import cmbproj.basis as basis
        def refuse(*args):
            raise AssertionError("the mapping was built")
        monkeypatch.setattr(basis, "ModeMapping", refuse)
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET", 1024)
        # 64 bytes per entry and 16 KiB for the sort's buffers
        with pytest.raises(MemoryError, match="a mode mapping of 10 entries "
                                              "needs 17024 bytes"):
            cp.default_mode_mapping(3)


class TestMappingFile:
    def test_round_trip(self, tmp_path):
        m = cp.default_mode_mapping(4)
        path = tmp_path / "map.txt"
        cp.save_mode_mapping(m, path)
        loaded = cp.load_mode_mapping(path)
        assert loaded.p_max == m.p_max
        assert loaded.entries.tolist() == m.entries.tolist()

    def test_two_entry_file(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("modalmap v1 p_max=2 n_max=2\n0 0 0 0\n1 0 0 1\n")
        m = cp.load_mode_mapping(path)
        assert m.n_max == 2 and m.triple(1) == (0, 0, 1)

    def test_unordered_triple_names_line(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("modalmap v1 p_max=2 n_max=3\n"
                        "0 0 0 0\n1 0 0 1\n2 0 1 0\n")
        with pytest.raises(MappingFormatError, match="unordered.*line 4"):
            cp.load_mode_mapping(path)

    def test_duplicate_triple(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("modalmap v1 p_max=2 n_max=2\n0 0 0 1\n1 0 0 1\n")
        with pytest.raises(MappingFormatError, match="duplicate.*line 3"):
            cp.load_mode_mapping(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("modalmap v1 p_max=2 n_max=1\n0 0 0 2\n")
        with pytest.raises(MappingFormatError, match="range.*line 2"):
            cp.load_mode_mapping(path)

    @pytest.mark.parametrize("records,message", [
        # a blank line before the bad record still counts
        ("0 0 0 0\n\n1 0 1 0\n", "unordered triple at line 4"),
        ("0 0 0 1\n\n\n1 0 0 1\n", "duplicate triple at line 5"),
        ("\n0 0 0 2\n1 0 0 0\n", "out of range .* at line 3"),
        # of two bad records, the first is named, whatever its fault
        ("0 0 0 0\n1 0 1 0\n2 0 0 0\n", "unordered triple at line 3"),
        ("0 0 0 0\n1 0 0 0\n2 1 0 0\n", "duplicate triple at line 3"),
        ("0 0 0 0\n1 0 0 5\n2 1 0 0\n", "out of range .* at line 3"),
        ("0 0 1 0\n1 0 zero 0\n", "unordered triple at line 2"),
        ("0 0 0 0\n2 0 0 1\n2 1 0 0\n", "not ascending at line 3"),
    ])
    def test_names_the_first_bad_line(self, tmp_path, records, message):
        path = tmp_path / "map.txt"
        path.write_text("modalmap v1 p_max=2 n_max=3\n" + records)
        with pytest.raises(MappingFormatError, match=message):
            cp.load_mode_mapping(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("modalmap v1 p_max=2 n_max=1\n0 0 zero 0\n")
        with pytest.raises(MappingFormatError, match="line 2"):
            cp.load_mode_mapping(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("mappingfile v2\n")
        with pytest.raises(MappingFormatError, match="header"):
            cp.load_mode_mapping(path)

    def test_header_pmax_past_int64(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("modalmap v1 p_max=100000000000000000000000 "
                        "n_max=1\n0 0 0 1\n")
        with pytest.raises(MappingFormatError, match="bad header line"):
            cp.load_mode_mapping(path)

    def test_no_entries(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("modalmap v1 p_max=2 n_max=0\n")
        with pytest.raises(MappingFormatError, match="no entries"):
            cp.load_mode_mapping(path)


class TestRadialGrid:
    # the peak window [R_PEAK - 5 R_SIGMA, R_PEAK + 5 R_SIGMA]
    LO, HI = R_PEAK - 5 * R_SIGMA, R_PEAK + 5 * R_SIGMA

    def test_zone_counts_216(self):
        g = cp.default_radial_grid(216)
        lo, hi = self.LO, self.HI
        assert np.sum(g.r < lo) == 54
        assert np.sum((g.r >= lo) & (g.r <= hi)) == 108
        assert np.sum(g.r > hi) == 54

    def test_endpoints(self):
        g = cp.default_radial_grid(216)
        assert g.r[0] == 0.0 and g.r[-1] == 16000.0

    def test_middle_zone_finest(self):
        g = cp.default_radial_grid(216)
        lo, hi = self.LO, self.HI
        dr = np.diff(g.r)
        mid = (g.r[:-1] >= lo) & (g.r[1:] <= hi)
        outer = ~mid
        assert dr[mid].max() < dr[outer].min()

    @pytest.mark.parametrize("n", [12, 54, 216, 433, 1768])
    def test_strictly_increasing_exact_count(self, n):
        g = cp.default_radial_grid(n)
        assert len(g) == n
        assert np.all(np.diff(g.r) > 0)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            cp.default_radial_grid(11)


@pytest.fixture(scope="module")
def tables():
    grid = cp.default_radial_grid(54)
    return cp.synthesize_basis(4, 2, 32, grid), grid


class TestSynthesizeBasis:

    def test_q0_constant(self, tables):
        t, _ = tables
        assert np.all(t.q[0] == 1.0)

    def test_q1_endpoints(self, tables):
        t, _ = tables
        assert t.q[1, 0] == -1.0 and t.q[1, -1] == 1.0

    def test_peak_weight(self):
        assert radial_peak_weight(14000.0) == pytest.approx(1.05, rel=1e-15)

    def test_v_formula(self, tables):
        t, _ = tables
        ells = t.ells()
        assert np.allclose(t.v, (2 * ells + 1) ** (1 / 6), rtol=1e-14)

    def test_spectrum_positive_finite(self, tables):
        t, _ = tables
        assert np.all(t.C > 0)
        for arr in (t.q, t.q_tilde, t.C, t.v):
            assert np.all(np.isfinite(arr))

    def test_bit_reproducible(self, tables):
        t, grid = tables
        again = cp.synthesize_basis(4, 2, 32, grid)
        assert np.array_equal(t.q, again.q)
        assert np.array_equal(t.q_tilde, again.q_tilde)
        assert t.fingerprint() == again.fingerprint()

    def test_qtilde_separable_shape(self, tables):
        t, grid = tables
        w = radial_peak_weight(grid.r)
        assert np.allclose(t.q_tilde[2, :, 5], t.q[2, 5] * w, rtol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_v(self, tables, bad):
        t, _ = tables
        v = t.v.copy()
        v[0] = bad
        with pytest.raises(ValueError, match="v_l"):
            dataclasses.replace(t, v=v)

    @pytest.mark.parametrize("p_max,l_max,n_r", [(4, 100, 216),
                                                 (3, 16, 1768),
                                                 (1, 2, 100000)])
    def test_budget_counts_the_peak(self, p_max, l_max, n_r):
        # the grid, the tables and the spline weights, the costliest
        # integrator's; tracemalloc also sees numpy's iteration buffer
        # and the O(p L) tables
        tracemalloc.start()
        try:
            grid = cp.default_radial_grid(n_r)
            tables = cp.synthesize_basis(p_max, 2, l_max, grid)
            cp.integration_weights(grid.r, "spline")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = _check_table_budget(p_max, 2, l_max, n_r)
        assert peak <= count + (1 << 17)
        assert count < 1.25 * peak + (1 << 17)
        assert count > 1.1 * tables.q_tilde.nbytes

    def test_over_budget_refused_before_allocation(self, tables,
                                                   monkeypatch):
        import cmbproj.basis as basis
        def refuse(r):
            raise AssertionError("the radial profile was built")
        monkeypatch.setattr(basis, "radial_peak_weight", refuse)
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET", 1024)
        _, grid = tables
        with pytest.raises(MemoryError,
                           match="basis tables need .* budget allows 1024"):
            cp.synthesize_basis(1, 2, 2, grid)

    def test_benchmark_sizes_never_refused(self):
        # the largest p, R and L of any workload together, and two
        # larger command-line runs
        for p_max, l_max, n_r in [(4, 80, 1768), (6, 80, 216),
                                  (8, 400, 216)]:
            assert _check_table_budget(p_max, 2, l_max, n_r) \
                < MEMORY_BUDGET // 100


class TestFingerprint:
    @staticmethod
    def _tobytes_digest(t):
        return _sha256(t.q.tobytes(), t.q_tilde.tobytes(), t.C.tobytes(),
                       t.v.tobytes(), np.int64([t.l_min, t.l_max]).tobytes())

    def test_matches_tobytes_for_any_input_layout(self, tables):
        t, _ = tables
        # Fortran order, a transposed view and a strided view
        q_tilde = np.ascontiguousarray(t.q_tilde.transpose(2, 1, 0))
        other = cp.BasisTables(q=np.asfortranarray(t.q),
                               q_tilde=q_tilde.transpose(2, 1, 0),
                               C=np.repeat(t.C, 2)[::2], v=t.v,
                               l_min=t.l_min, l_max=t.l_max)
        assert other.fingerprint() == self._tobytes_digest(t)
        assert t.fingerprint() == self._tobytes_digest(t)

    def test_hashes_without_copying_tables(self):
        t = cp.synthesize_basis(4, 2, 40, cp.default_radial_grid(1768))
        tracemalloc.start()
        try:
            t.fingerprint()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * t.q_tilde.nbytes

