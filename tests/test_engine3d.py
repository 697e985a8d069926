import math
import pickle
import tracemalloc

import numpy as np
import pytest

import cmbproj as cp
from cmbproj.basis import _PERMS3
from conftest import NoPool, Problem, RecordingContext, h2_oracle


def relative_gap(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / scale


@pytest.fixture(scope="module")
def naive(desk):
    return cp.gamma3d_naive(desk.tables, desk.mapping, desk.grid)


class TestFactors:
    def test_x_equilateral_collapses(self, desk):
        # on an equilateral triple every permutation gives the same product
        t, g, m = desk.tables, desk.grid, desk.mapping
        ip, jp, kp = m.triple(5)
        f = t.q_tilde[ip, :, 0] * t.q_tilde[jp, :, 0] * t.q_tilde[kp, :, 0]
        direct = cp.integrate_trapezium(g.r, g.r**2 * 6.0 * f)
        got = cp.radial_integral_x(2, 2, 2, 5, t, m, g)
        assert got == pytest.approx(direct, rel=1e-13)

    def test_y_equilateral_collapses(self, desk):
        t, m = desk.tables, desk.mapping
        i, j, k = m.triple(7)
        expect = 6.0 * t.q[i, 0] * t.q[j, 0] * t.q[k, 0]
        assert cp.late_product_y(2, 2, 2, 7, t, m) \
            == pytest.approx(expect, rel=1e-14)

    def test_y_symmetric_under_l_permutation(self, desk):
        t, m = desk.tables, desk.mapping
        a = cp.late_product_y(2, 5, 7, 3, t, m)
        b = cp.late_product_y(5, 7, 2, 3, t, m)  # unordered input is fine
        assert a == pytest.approx(b, rel=1e-14)

    def test_x_symmetric_under_l_permutation(self, desk):
        t, g, m = desk.tables, desk.grid, desk.mapping
        a = cp.radial_integral_x(2, 5, 7, 3, t, m, g)
        b = cp.radial_integral_x(7, 2, 5, 3, t, m, g)
        assert a == pytest.approx(b, rel=1e-13)


class TestBlockedVsNaive:
    def test_default_block(self, desk, naive):
        blocked = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid)
        assert relative_gap(blocked.values, naive.values) < 1e-12

    @pytest.mark.parametrize("block", [1, 7, 64, 256])
    def test_block_size_invariance(self, desk, naive, block):
        blocked = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                                    block=block)
        assert relative_gap(blocked.values, naive.values) < 1e-12

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_worker_count_invariance(self, desk, naive, workers):
        g = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              workers=workers)
        assert relative_gap(g.values, naive.values) < 1e-12

    def test_fixed_config_is_bitwise_reproducible(self, desk):
        a = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              workers=3, block=16)
        b = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              workers=3, block=16)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("integrator", ["hermite", "spline"])
    def test_other_integrators(self, desk, integrator):
        blocked = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                                    integrator=integrator)
        naive = cp.gamma3d_naive(desk.tables, desk.mapping, desk.grid,
                                 integrator=integrator)
        assert relative_gap(blocked.values, naive.values) < 1e-12

    def test_exact_mode(self, desk):
        blocked = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                                    h2_mode="exact")
        naive = cp.gamma3d_naive(desk.tables, desk.mapping, desk.grid,
                                 h2_mode="exact")
        assert relative_gap(blocked.values, naive.values) < 1e-12

    def test_unknown_h2_mode(self, desk):
        with pytest.raises(ValueError):
            cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              h2_mode="asymptotic")

    def test_rejects_bad_block(self, desk):
        with pytest.raises(ValueError):
            cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid, block=0)


class TestRefusedInParent:
    """Bad arguments raise before the meta or any worker pool exists."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        import cmbproj.engine3d as e3
        def refuse(*args, **kwargs):
            raise AssertionError("reached the meta or the pool")
        monkeypatch.setattr(e3, "get_context", refuse)
        monkeypatch.setattr(e3, "_base_meta", refuse)

    @pytest.mark.parametrize("lo,hi", [(2, 16), (4, 20), (6, 16)])
    def test_domain_outside_table_range(self, no_pool, lo, hi):
        # l_min 2 used to wrap to the tables' last rows (a matrix 37% of
        # scale off); l_max 20 raised a bare IndexError
        pr = Problem(l_min=4, l_max=16, p_max=2, n_r=30)
        with pytest.raises(ValueError, match="domain covers"):
            cp.gamma3d_matrix(pr.tables, pr.mapping, pr.grid, workers=2,
                              domain=cp.enumerate_domain(lo, hi))

    def test_unknown_h2_mode(self, desk, no_pool):
        with pytest.raises(ValueError, match="h2_mode"):
            cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              h2_mode="bogus", workers=2)

    def test_unknown_integrator(self, desk, no_pool):
        with pytest.raises(ValueError, match="integrator"):
            cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              integrator="bogus", workers=2)

    @pytest.mark.parametrize("integrators", [
        (), ("bogus",), ("trap", "bogus"), ("trap", "hermite", "simpson")])
    def test_no_or_unknown_integrator_in_stack(self, desk, no_pool,
                                               integrators):
        with pytest.raises(ValueError, match="integrator"):
            cp.gamma3d_matrices(desk.tables, desk.mapping, desk.grid,
                                integrators=integrators, workers=2)

    def test_matching_domain_accepted(self, desk):
        domain = cp.enumerate_domain(desk.l_min, desk.l_max)
        a = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              domain=domain)
        b = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid)
        assert np.array_equal(a.values, b.values)


STACK = ("trap", "hermite", "spline")


class TestStackedIntegrators:
    """One sweep for several integrators gives each one's own matrix."""

    @pytest.mark.parametrize("h2_mode", ["gosper", "exact"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_matches_single_integrator(self, desk, h2_mode, workers, block):
        stacked = cp.gamma3d_matrices(desk.tables, desk.mapping, desk.grid,
                                      h2_mode, STACK, block, workers)
        for name, g in zip(STACK, stacked):
            single = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                                       h2_mode, name, block, workers)
            assert relative_gap(g.values, single.values) <= 1e-15
            assert g.meta == single.meta

    @pytest.mark.parametrize("h2_mode", ["gosper", "exact"])
    def test_matches_naive(self, h2_mode):
        pr = Problem(l_min=2, l_max=8, p_max=3, n_r=30)
        stacked = cp.gamma3d_matrices(pr.tables, pr.mapping, pr.grid,
                                      h2_mode, STACK, block=7, workers=2)
        for name, g in zip(STACK, stacked):
            naive = cp.gamma3d_naive(pr.tables, pr.mapping, pr.grid,
                                     h2_mode, name)
            assert relative_gap(g.values, naive.values) < 1e-12

    def test_bitwise_reproducible(self, desk):
        a, b = (cp.gamma3d_matrices(desk.tables, desk.mapping, desk.grid,
                                    integrators=STACK, block=16, workers=3)
                for _ in range(2))
        for x, y in zip(a, b):
            assert np.array_equal(x.values, y.values)


class TestRadialSlabs:
    """The sweep sums each block over slabs of radial points: ``_SLAB`` for
    a block of ``_SLAB`` triples or more, more for a smaller block."""

    def test_slab_points(self):
        import cmbproj.engine3d as e3
        assert [e3._slab_points(b) for b in (1, 7, 63, 64, 65, 10**6)] \
            == [4096, 585, 65, 64, 64, 64]

    @pytest.mark.parametrize("h2_mode", ["gosper", "exact"])
    @pytest.mark.parametrize("n_r", [63, 64, 65, 150])
    def test_matches_naive(self, n_r, h2_mode):
        # the first block, 64 of the 71 triples, is swept in slabs of 64
        # points: the last one partial, full, a single point, or the third
        pr = Problem(l_min=2, l_max=10, p_max=3, n_r=n_r)
        stacked = cp.gamma3d_matrices(pr.tables, pr.mapping, pr.grid,
                                      h2_mode, STACK, block=64, workers=1)
        for name, g in zip(STACK, stacked):
            naive = cp.gamma3d_naive(pr.tables, pr.mapping, pr.grid,
                                     h2_mode, name)
            assert relative_gap(g.values, naive.values) < 1e-12

    @pytest.fixture(scope="class")
    def desk150(self):
        return Problem(l_min=2, l_max=16, p_max=3, n_r=150)

    def test_stack_is_bitwise_single_integrator(self, desk150):
        pr = desk150
        stacked = cp.gamma3d_matrices(pr.tables, pr.mapping, pr.grid,
                                      "exact", STACK, block=64, workers=2)
        for name, g in zip(STACK, stacked):
            single = cp.gamma3d_matrix(pr.tables, pr.mapping, pr.grid,
                                       "exact", name, block=64, workers=2)
            assert np.array_equal(g.values, single.values)

    def test_repeat_bitwise_and_workers_close(self, desk150):
        pr = desk150
        runs = {w: [cp.gamma3d_matrices(pr.tables, pr.mapping, pr.grid,
                                        integrators=STACK, workers=w)
                    for _ in range(2)]
                for w in (1, 2, 3)}
        for a, b in runs.values():
            for x, y in zip(a, b):
                assert np.array_equal(x.values, y.values)
        for w in (2, 3):
            for x, y in zip(runs[1][0], runs[w][0]):
                assert relative_gap(x.values, y.values) <= 1e-12

    @staticmethod
    def _peak(fn, *args):
        fn(*args)                            # fills the process's caches
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_independent_of_radial_size(self):
        peaks = []
        for n_r in (216, 1768):
            pr = Problem(l_min=2, l_max=16, p_max=3, n_r=n_r)
            peaks.append(self._peak(cp.gamma3d_matrices, pr.tables,
                                    pr.mapping, pr.grid, "gosper", STACK))
        # whole radial columns made this ~8x
        assert peaks[1] < 1.1 * peaks[0]

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_sweep_within_block_bytes(self, block):
        # the working-set formula bounds what a sweep really holds
        import cmbproj.engine3d as e3
        pr = Problem(l_min=2, l_max=16, p_max=3, n_r=1768)
        domain = cp.enumerate_domain(2, 16)
        wr2 = np.stack([cp.integration_weights(pr.grid.r, name)
                        * pr.grid.r**2 for name in STACK])
        peak = self._peak(e3._sweep, 0, domain.count, pr.tables, pr.mapping,
                          wr2, domain, "gosper", block)
        assert peak <= e3._block_bytes(pr.p_max, pr.mapping.n_max, 1768,
                                       block, len(STACK))


class TestOrderedEnumeration:
    def test_matches_unordered_reference(self):
        # ordered triples with multiplicity {1, 3, 6} must exactly equal
        # the full unordered sum; small l_max keeps the cube affordable
        import cmbproj as cp
        grid = cp.default_radial_grid(30)
        tables = cp.synthesize_basis(3, 2, 12, grid)
        mapping = cp.default_mode_mapping(3)
        ordered = cp.gamma3d_matrix(tables, mapping, grid)
        unordered = cp.gamma3d_unordered_reference(tables, mapping, grid)
        assert relative_gap(ordered.values, unordered.values) < 1e-12


class TestGosperVsExact:
    def test_within_h2_error_envelope(self, desk, naive):
        exact = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                                  h2_mode="exact")
        gosper = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                                   h2_mode="gosper")
        # worst h2 relative error over the domain bounds the entrywise
        # deviation only loosely (mixing of signs); check the rms level
        gap = relative_gap(gosper.values, exact.values)
        assert 0 < gap < 0.025


def truth_exact(pr, integrator="trap"):
    """The exact-mode direct matrix with each cell the ``math.fsum`` of its
    per-triple terms x * y * z * multiplicity, h^2 from the rational
    oracle: it shares neither h^2 nor the summation with the engine."""
    t, m = pr.tables, pr.mapping
    d = cp.enumerate_domain(pr.l_min, pr.l_max)
    i1, i2, i3 = d.l1 - pr.l_min, d.l2 - pr.l_min, d.l3 - pr.l_min
    h2 = np.array([h2_oracle(*triple) for triple in
                   zip(d.l1.tolist(), d.l2.tolist(), d.l3.tolist())])
    z = (h2 / (36.0 * t.v[i1] * t.v[i2] * t.v[i3]
               * np.sqrt(t.C[i1] * t.C[i2] * t.C[i3]))
         * cp.permutation_multiplicity(d.l1, d.l2, d.l3))
    wr2 = cp.integration_weights(pr.grid.r, integrator) * pr.grid.r**2
    e = m.entries
    x = np.zeros((d.count, m.n_max))
    y = np.zeros((d.count, m.n_max))
    for a, b, c in _PERMS3:
        y += (t.q[e[:, a]][:, i1] * t.q[e[:, b]][:, i2]
              * t.q[e[:, c]][:, i3]).T
        x += np.einsum("nrt,nrt,nrt,r->tn", t.q_tilde[e[:, a]][:, :, i1],
                       t.q_tilde[e[:, b]][:, :, i2],
                       t.q_tilde[e[:, c]][:, :, i3], wr2)
    return np.array([[math.fsum(y[:, row] * x[:, col] * z)
                      for col in range(m.n_max)] for row in range(m.n_max)])


class TestExactModeTruth:
    def test_every_cell_against_fsum_truth(self):
        # the worst cell's terms cancel by ~115, so this bound also holds
        # the engine's own summation to a few ulp of its terms
        pr = Problem(l_min=2, l_max=40, p_max=3, n_r=54)
        g = cp.gamma3d_matrix(pr.tables, pr.mapping, pr.grid, "exact",
                              "trap")
        truth = truth_exact(pr)
        assert np.max(np.abs(g.values / truth - 1)) <= 1e-13


class TestPoolJobs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_jobs_carry_only_their_range(self, workers, monkeypatch):
        import cmbproj.engine3d as e3
        pr = Problem(l_min=2, l_max=24, p_max=3, n_r=54)
        domain = cp.enumerate_domain(2, 24)
        wr2 = (cp.integration_weights(pr.grid.r, "hermite")
               * pr.grid.r**2)[None]
        # the same chunks of whole 64-triple blocks, swept in this process
        # and summed in order
        sizes = [min(64, domain.count - b0)
                 for b0 in range(0, domain.count, 64)]
        ranges = [(64 * start, min(64 * stop, domain.count))
                  for start, stop in cp.make_weighted_plan(sizes, workers)]
        partials = [e3._sweep(start, stop, pr.tables, pr.mapping, wr2,
                              domain, "exact", 64)
                    for start, stop in ranges]
        expected = partials[0]
        for part in partials[1:]:
            expected += part
        jobs = []
        monkeypatch.setattr(e3, "get_context", RecordingContext(jobs))
        g = cp.gamma3d_matrix(pr.tables, pr.mapping, pr.grid, "exact",
                              "hermite", block=64, workers=workers,
                              domain=domain)
        assert jobs == (ranges if workers > 1 else [])
        assert all(len(pickle.dumps(job)) < 1024 for job in jobs)
        assert np.array_equal(g.values, expected[0])


class TestEmptyChunks:
    """No worker is forked for a chunk without triples."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_one_block_runs_in_process(self, monkeypatch, workers):
        # l_max 8 has 39 triples: one block of 64
        import cmbproj.engine3d as e3
        pr = Problem(l_min=2, l_max=8, p_max=2, n_r=30)
        single = cp.gamma3d_matrix(pr.tables, pr.mapping, pr.grid, "exact",
                                   workers=1)
        monkeypatch.setattr(e3, "get_context", NoPool())
        multi = cp.gamma3d_matrix(pr.tables, pr.mapping, pr.grid, "exact",
                                  workers=workers)
        assert np.array_equal(single.values, multi.values)
        assert multi.meta["workers"] == workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_domain_gives_zero_matrix(self, monkeypatch, workers):
        import cmbproj.engine3d as e3
        pr = Problem(l_min=3, l_max=3, p_max=2, n_r=30)
        assert cp.enumerate_domain(3, 3).count == 0
        monkeypatch.setattr(e3, "get_context", NoPool())
        g = cp.gamma3d_matrix(pr.tables, pr.mapping, pr.grid,
                              workers=workers)
        assert np.array_equal(g.values, np.zeros((4, 4)))
        assert g.meta["workers"] == workers


class TestBlockBudget:
    @staticmethod
    def _need(desk, b):
        from cmbproj.engine3d import _block_bytes
        return _block_bytes(desk.p_max, desk.mapping.n_max, len(desk.grid),
                            b, 1)

    def test_refused_before_sweep(self, desk, monkeypatch):
        import cmbproj.engine3d as e3
        def no_sweep(*args):
            raise AssertionError("sweep started")
        monkeypatch.setattr(e3, "_sweep", no_sweep)
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET",
                            self._need(desk, 64) - 1)
        with pytest.raises(MemoryError, match="a block of 64 triples needs"):
            cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid, block=64)

    def test_block_clipped_to_largest_chunk(self, desk, monkeypatch):
        count = cp.enumerate_domain(desk.l_min, desk.l_max).count
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET",
                            self._need(desk, count))
        g = cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              block=10**9)
        assert g.shape == (desk.mapping.n_max, desk.mapping.n_max)
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET",
                            self._need(desk, count) - 1)
        with pytest.raises(MemoryError,
                           match=f"a block of {count} triples needs"):
            cp.gamma3d_matrix(desk.tables, desk.mapping, desk.grid,
                              block=10**9)

    def test_cli_exit_3(self, monkeypatch, capsys):
        from cmbproj.cli import main as cli_main
        from cmbproj.engine3d import _block_bytes
        # every other count of this run is below the block's
        count = cp.enumerate_domain(2, 8).count
        need = _block_bytes(2, 4, 30, count, 1)
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET", need - 1)
        rc = cli_main(["--mode", "gamma3d", "--lmin", "2", "--lmax", "8",
                       "--pmax", "2", "--r-samples", "30"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical error" in err
        assert f"a block of {count} triples needs {need} bytes" in err

    @pytest.mark.parametrize("p_max", [12, 16, 20])
    def test_counts_bound_the_peak(self, p_max):
        # the block alone was 21.4 MB of a 77.9 MB peak at p 20
        import cmbproj.engine3d as e3
        pr = Problem(2, 8, p_max, 12)
        domain = cp.enumerate_domain(2, 8)
        n_max = pr.mapping.n_max
        peak = TestRadialSlabs._peak(cp.gamma3d_matrices, pr.tables,
                                     pr.mapping, pr.grid, "gosper", STACK,
                                     64, 1, domain)
        count = (e3._block_bytes(p_max, n_max, 12, domain.count, len(STACK))
                 + e3._check_accumulator_budget(n_max, len(STACK), 1))
        assert peak <= count < 1.1 * peak

    def test_accumulators_refused_before_sweep(self, monkeypatch):
        import cmbproj.engine3d as e3
        def no_sweep(*args):
            raise AssertionError("sweep started")
        monkeypatch.setattr(e3, "_sweep", no_sweep)
        pr = Problem(2, 8, 12, 12)
        need = e3._check_accumulator_budget(pr.mapping.n_max, 1, 1)
        # a one-triple block needs less than its 364 x 364 accumulator
        assert e3._block_bytes(12, pr.mapping.n_max, 12, 1, 1) < need
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET", need - 1)
        with pytest.raises(MemoryError,
                           match=f"matrix accumulators need {need} bytes"):
            cp.gamma3d_matrix(pr.tables, pr.mapping, pr.grid, block=1)

    def test_pool_counts_the_parent_copies(self):
        from cmbproj.engine3d import _check_accumulator_budget
        assert _check_accumulator_budget(20, 3, 1) == 8 * 3 * 400 + 400
        assert _check_accumulator_budget(20, 3, 2) == 8 * 4 * 3 * 400 + 400
