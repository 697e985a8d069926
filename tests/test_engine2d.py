import math
import pickle
import tracemalloc

import numpy as np
import pytest

import cmbproj as cp
from cmbproj.basis import _ordering_index
from cmbproj.engine2d import (_check_ptable_budget, _check_sweep_budget,
                              _l_weight, _pair_groups, _permanent3, _sweep,
                              default_mu_points)
from conftest import NoPool, Problem, RecordingContext


def relative_gap(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / scale


class TestDefaultMuPoints:
    @pytest.mark.parametrize("l_max,n", [(16, 27), (32, 51), (128, 195)])
    def test_values(self, l_max, n):
        assert default_mu_points(l_max) == n

    def test_rule_is_exact_for_triple_products(self):
        # an n-node rule integrates P_a P_b P_c exactly when
        # 2n-1 >= 3 l_max; compare against a much larger rule
        l_max = 16
        rules = [cp.gauss_legendre(default_mu_points(l_max)),
                 cp.gauss_legendre(4 * l_max)]
        tabs = [cp.legendre_table(l_max, rule) for rule in rules]
        for a, b, c in [(16, 16, 16), (15, 16, 16), (2, 7, 9)]:
            vals = [float((t[a] * t[b] * t[c]) @ rule.weights)
                    for rule, t in zip(rules, tabs)]
            assert vals[0] == pytest.approx(vals[1], abs=1e-14)


class TestPermanent3:
    def test_against_permutation_sum(self, rng):
        from itertools import permutations
        m = rng.standard_normal((3, 3))
        expected = sum(m[0, p[0]] * m[1, p[1]] * m[2, p[2]]
                       for p in permutations(range(3)))
        got = _permanent3([[m[a, b] for b in range(3)] for a in range(3)])
        assert got == pytest.approx(expected, rel=1e-15)

    def test_broadcasts_trailing_axes(self, rng):
        m = rng.standard_normal((3, 3, 5, 4))
        blk = [[m[a, b] for b in range(3)] for a in range(3)]
        out = _permanent3(blk)
        assert out.shape == (5, 4)
        single = _permanent3([[m[a, b, 2, 1] for b in range(3)]
                              for a in range(3)])
        assert out[2, 1] == pytest.approx(single, rel=1e-13)


class TestPTable:
    def test_shape(self, desk):
        pt = cp.build_ptable(desk.tables, desk.rule, desk.legendre)
        L = desk.l_max - desk.l_min + 1
        assert pt.shape == (desk.p_max, desk.p_max,
                            len(desk.grid), desk.rule.n)
        assert L == 15

    def test_matches_direct_sum(self, desk):
        pt = cp.build_ptable(desk.tables, desk.rule, desk.legendre)
        t = desk.tables
        lw = _l_weight(t)
        pl = desk.legendre[t.l_min:t.l_max + 1]
        for a, b, x, m in [(0, 0, 0, 0), (1, 2, 10, 5), (2, 1, 53, 26)]:
            direct = float(np.sum(lw * t.q[a] * t.q_tilde[b, x] * pl[:, m]))
            assert pt[a, b, x, m] == pytest.approx(direct, rel=1e-12)

    def test_budget_enforced(self, desk, monkeypatch):
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET", 1024)
        with pytest.raises(MemoryError, match="P table, its build and the "
                                              "Legendre table need .* "
                                              "budget allows 1024"):
            cp.build_ptable(desk.tables, desk.rule, desk.legendre)

    @pytest.mark.parametrize("p_max,l_max,n_r", [(3, 40, 216), (4, 80, 216),
                                                 (6, 24, 108)])
    def test_budget_counts_the_set_up_peak(self, p_max, l_max, n_r):
        # the count holds the P table, the [p, p, R, L] product it is
        # built from and the Legendre table; tracemalloc also sees numpy's
        # iteration buffer (8192 elements) and the O(p L) weights
        pr = Problem(2, l_max, p_max, n_r)
        tracemalloc.start()
        try:
            table = cp.build_ptable(pr.tables, pr.rule, pr.legendre)
            peak = tracemalloc.get_traced_memory()[1] + pr.legendre.nbytes
        finally:
            tracemalloc.stop()
        count = _check_ptable_budget(p_max, l_max - 1, n_r, l_max,
                                     pr.rule.n)
        assert peak <= count + (1 << 17)
        # the table alone, all the count once held, is ~1.7x short
        assert peak > 1.5 * table.nbytes

    def test_mu_rule_exactness_bound(self, desk):
        # l_max=16 needs ceil((3*16+1)/2) = 25 nodes; with fewer the matrix
        # came out with the wrong norm and no error
        def build(n_mu):
            rule = cp.gauss_legendre(n_mu)
            return cp.build_ptable(desk.tables, rule,
                                   cp.legendre_table(desk.l_max, rule))
        with pytest.raises(ValueError, match=">= 25"):
            build(24)
        assert build(25).shape[-1] == 25

    def test_deterministic(self, desk):
        a = cp.build_ptable(desk.tables, desk.rule, desk.legendre)
        b = cp.build_ptable(desk.tables, desk.rule, desk.legendre)
        assert np.array_equal(a, b)


class TestSweepBudget:
    @pytest.mark.parametrize("p_max", [12, 16, 20])
    def test_counts_bound_the_peak(self, p_max):
        # with the P-table count, the sweep's count bounds a whole matrix;
        # at p 20 the P-table count alone is 0.85 MB of a 38.7 MB peak
        pr = Problem(2, 8, p_max, 12)
        tracemalloc.start()
        try:
            cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid, pr.rule,
                              pr.legendre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = (_check_sweep_budget(p_max, pr.mapping.n_max, 12, pr.rule.n,
                                     1)
                 + _check_ptable_budget(p_max, 7, 12, 8, pr.rule.n))
        assert peak <= count < 1.1 * peak

    @pytest.mark.parametrize("p_max,l_max,n_r", [(12, 8, 1768),
                                                 (20, 8, 1768),
                                                 (4, 40, 216)])
    def test_counts_bound_the_sweep_alone(self, p_max, l_max, n_r):
        # R spans several slabs; one slab's rows must be freed before the
        # next are made
        pr = Problem(2, l_max, p_max, n_r)
        pt = cp.build_ptable(pr.tables, pr.rule, pr.legendre)
        wr2 = cp.integration_weights(pr.grid.r, "trap") * pr.grid.r**2
        job = (_pair_groups(pr.mapping), pt,
               np.outer(wr2, pr.rule.weights).ravel(),
               _ordering_index(pr.mapping, p_max))
        tracemalloc.start()
        try:
            _sweep(*job)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _check_sweep_budget(p_max, pr.mapping.n_max, n_r,
                                           pr.rule.n, 1)

    def test_refused_before_the_p_table(self, desk, monkeypatch):
        import cmbproj.engine2d as e2
        def refuse(*args):
            raise AssertionError("the P table or the row groups were built")
        monkeypatch.setattr(e2, "build_ptable", refuse)
        monkeypatch.setattr(e2, "_pair_groups", refuse)
        need = _check_sweep_budget(desk.p_max, desk.mapping.n_max,
                                   len(desk.grid), desk.rule.n, 1)
        monkeypatch.setattr("cmbproj.gamma.MEMORY_BUDGET", need - 1)
        with pytest.raises(MemoryError, match=f"mode-space arrays need "
                                              f"{need} bytes"):
            cp.gamma2d_matrix(desk.tables, desk.mapping, desk.grid,
                              desk.rule, desk.legendre)

    @pytest.mark.parametrize("p_max", [16, 20])
    def test_counts_bound_the_pool_parent_peak(self, p_max):
        # the parent reads the workers' rows and places them; a first pool
        # loads multiprocessing's modules, which are no mode-space array
        small = Problem(2, 8, 2, 12)
        cp.gamma2d_matrix(small.tables, small.mapping, small.grid,
                          small.rule, small.legendre, workers=2)
        pr = Problem(2, 8, p_max, 12)
        tracemalloc.start()
        try:
            cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid, pr.rule,
                              pr.legendre, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = (_check_sweep_budget(p_max, pr.mapping.n_max, 12, pr.rule.n,
                                     2)
                 + _check_ptable_budget(p_max, 7, 12, 8, pr.rule.n))
        assert peak <= count

    def test_pmax_ceiling(self):
        # two [n_max, n_max] arrays of 8 bytes fit 2 GiB up to p_max 40
        n_mu = default_mu_points(8)
        assert _check_sweep_budget(40, math.comb(42, 3), 12, n_mu, 2)
        with pytest.raises(MemoryError):
            _check_sweep_budget(41, math.comb(43, 3), 12, n_mu, 1)

    def test_pool_counts_its_workers(self):
        # at n_max 20 the sweep's working arrays outgrow the [n_max, n_max]
        # matrix; each worker adds one slab, c = 61 * 50 folded points
        one = _check_sweep_budget(4, 20, 216, 50, 1)
        two = _check_sweep_budget(4, 20, 216, 50, 2)
        assert two - one == 8 * 2 * 16 * 3050


class TestMatrix:
    def test_matches_naive_matrix(self, desk):
        fast = cp.gamma2d_matrix(desk.tables, desk.mapping, desk.grid,
                                 desk.rule, desk.legendre)
        naive = cp.gamma2d_matrix_naive(desk.tables, desk.mapping, desk.grid,
                                        desk.rule, desk.legendre)
        assert relative_gap(fast.values, naive.values) < 1e-12

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_bitwise_identical_across_workers(self, desk, workers):
        base = cp.gamma2d_matrix(desk.tables, desk.mapping, desk.grid,
                                 desk.rule, desk.legendre, workers=1)
        multi = cp.gamma2d_matrix(desk.tables, desk.mapping, desk.grid,
                                  desk.rule, desk.legendre, workers=workers)
        assert np.array_equal(base.values, multi.values)

    def test_meta_records_provenance(self, desk):
        g = cp.gamma2d_matrix(desk.tables, desk.mapping, desk.grid,
                              desk.rule, desk.legendre, workers=2)
        assert g.meta["engine"] == "modal2d"
        assert g.meta["workers"] == 2
        assert g.meta["n_mu"] == desk.rule.n
        assert g.meta["tables"] == desk.tables.fingerprint()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert g.meta["blas"] == f"{blas['name']}-{blas['version']}"
        assert " " not in g.meta["blas"]

    @pytest.mark.parametrize("config", [{}, {"Build Dependencies": {}}, None])
    def test_meta_blas_unknown_when_unreported(self, monkeypatch, config):
        from cmbproj.gamma import _blas

        def show_config(mode):
            if config is None:          # a numpy without mode="dicts"
                raise TypeError(mode)
            return config
        monkeypatch.setattr(np, "show_config", show_config)
        _blas.cache_clear()
        try:
            assert _blas() == "unknown"
        finally:
            _blas.cache_clear()

    def test_unknown_integrator_refused_before_pool(self, desk,
                                                    monkeypatch):
        import cmbproj.engine2d as e2
        def refuse(*args, **kwargs):
            raise AssertionError("pool started")
        monkeypatch.setattr(e2, "get_context", refuse)
        with pytest.raises(ValueError, match="integrator"):
            cp.gamma2d_matrix(desk.tables, desk.mapping, desk.grid,
                              desk.rule, desk.legendre, integrator="bogus",
                              workers=2)

    def test_nonzero_and_finite(self, desk):
        g = cp.gamma2d_matrix(desk.tables, desk.mapping, desk.grid,
                              desk.rule, desk.legendre)
        assert np.all(np.isfinite(g.values))
        assert np.max(np.abs(g.values)) > 0


class TestRowSweep:
    @pytest.mark.parametrize("integrator", ["trap", "hermite", "spline"])
    @pytest.mark.parametrize("p_max", [2, 3, 4])
    def test_every_cell_matches_entry(self, p_max, integrator):
        # every cell against the naive oracle, which also covers the
        # integrator's pass-through to the matrix
        pr = Problem(l_min=2, l_max=10, p_max=p_max, n_r=40)
        g = cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid, pr.rule,
                              pr.legendre, integrator=integrator)
        n_max = pr.mapping.n_max
        cells = np.array([[cp.gamma2d_entry_naive(n, n_prime, pr.tables,
                                                  pr.mapping, pr.grid,
                                                  pr.rule, pr.legendre,
                                                  integrator)
                           for n_prime in range(n_max)]
                          for n in range(n_max)])
        assert relative_gap(g.values, cells) < 1e-14

    @pytest.mark.parametrize("kind", ["permuted", "smaller_p"])
    def test_mapping_variants_match_naive(self, desk, rng, kind):
        if kind == "permuted":
            order = rng.permutation(desk.mapping.n_max)
            mapping = cp.ModeMapping(desk.mapping.entries[order],
                                     desk.p_max)
        else:
            mapping = cp.default_mode_mapping(desk.p_max - 1)
        fast = cp.gamma2d_matrix(desk.tables, mapping, desk.grid,
                                 desk.rule, desk.legendre)
        naive = cp.gamma2d_matrix_naive(desk.tables, mapping, desk.grid,
                                        desk.rule, desk.legendre)
        assert fast.shape == (mapping.n_max, mapping.n_max)
        assert relative_gap(fast.values, naive.values) < 1e-12

    def test_bitwise_with_empty_chunk(self, desk):
        mapping = cp.ModeMapping(np.array([[0, 1, 2], [1, 1, 2]]),
                                 desk.p_max)
        runs = [cp.gamma2d_matrix(desk.tables, mapping, desk.grid,
                                  desk.rule, desk.legendre, workers=w)
                for w in (1, 3)]
        assert np.array_equal(runs[0].values, runs[1].values)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_worker_for_an_empty_chunk(self, monkeypatch, workers):
        # p_max 1 has one (i, j) group, so one chunk holds all the work
        import cmbproj.engine2d as e2
        pr = Problem(l_min=2, l_max=16, p_max=1, n_r=30)
        single = cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid, pr.rule,
                                   pr.legendre, workers=1)
        monkeypatch.setattr(e2, "get_context", NoPool())
        multi = cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid, pr.rule,
                                  pr.legendre, workers=workers)
        assert np.array_equal(single.values, multi.values)
        assert multi.meta["workers"] == workers

    def test_sweep_memory_independent_of_radial_size(self):
        peaks = []
        for n_r in (216, 1768):
            pr = Problem(l_min=2, l_max=40, p_max=4, n_r=n_r)
            pt = cp.build_ptable(pr.tables, pr.rule, pr.legendre)
            wr2 = cp.integration_weights(pr.grid.r, "spline") * pr.grid.r**2
            job = (_pair_groups(pr.mapping), pt,
                   np.outer(wr2, pr.rule.weights).ravel(),
                   _ordering_index(pr.mapping, pr.p_max))
            tracemalloc.start()
            try:
                _sweep(*job)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a sweep over whole radial columns would grow ~8x here
        assert peaks[1] < 1.1 * peaks[0]


def _unchecked_mapping(entries, p_max):
    """A ModeMapping that skips the i <= j <= k and no-duplicate checks:
    the sweep itself needs neither."""
    mapping = object.__new__(cp.ModeMapping)
    object.__setattr__(mapping, "entries", np.array(entries, dtype=np.int64))
    object.__setattr__(mapping, "p_max", p_max)
    return mapping


class TestPairGroups:
    def test_groups_in_first_appearance_order(self):
        mapping = _unchecked_mapping(
            [(2, 0, 1), (1, 1, 0), (0, 2, 1), (2, 0, 2), (1, 1, 0)], 3)
        assert _pair_groups(mapping) == (
            (2, 0, (0, 3), (1, 2)), (1, 1, (1, 4), (0, 0)),
            (0, 2, (2,), (1,)))

    def test_unsorted_and_repeated_triples_match_naive(self, desk):
        mapping = _unchecked_mapping(
            [(2, 0, 1), (0, 2, 1), (1, 1, 0), (1, 1, 0), (0, 1, 2),
             (2, 2, 2)], desk.p_max)
        fast = cp.gamma2d_matrix(desk.tables, mapping, desk.grid,
                                 desk.rule, desk.legendre)
        naive = cp.gamma2d_matrix_naive(desk.tables, mapping, desk.grid,
                                        desk.rule, desk.legendre)
        assert relative_gap(fast.values, naive.values) < 1e-12

    def test_bitwise_across_workers_with_scattered_groups(self, desk):
        order = np.random.default_rng(7).permutation(desk.mapping.n_max)
        mapping = cp.ModeMapping(desk.mapping.entries[order], desk.p_max)
        rows = [g[2] for g in _pair_groups(mapping)]
        assert any(r[-1] - r[0] >= len(r) for r in rows)   # not contiguous
        runs = [cp.gamma2d_matrix(desk.tables, mapping, desk.grid, desk.rule,
                                  desk.legendre, "hermite", workers=w)
                for w in (1, 2, 3, 5)]
        for run in runs[1:]:
            assert np.array_equal(runs[0].values, run.values)

    def test_pool_jobs_carry_only_groups(self, monkeypatch):
        import cmbproj.engine2d as e2
        pr = Problem(l_min=2, l_max=40, p_max=4, n_r=216)
        single = cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid, pr.rule,
                                   pr.legendre, workers=1)
        jobs = []
        monkeypatch.setattr(e2, "get_context", RecordingContext(jobs))
        multi = cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid, pr.rule,
                                  pr.legendre, workers=2)
        assert len(jobs) == 2
        assert max(len(pickle.dumps(job)) for job in jobs) < 4096
        assert np.array_equal(single.values, multi.values)

    def test_pool_results_are_finished_rows(self, monkeypatch):
        # each worker sends back its groups' rows of the matrix; the
        # [rows, p^3] sweep of the orderings outgrew the whole matrix
        import cmbproj.engine2d as e2
        pr = Problem(l_min=2, l_max=8, p_max=6, n_r=30)
        ctx = RecordingContext([])
        monkeypatch.setattr(e2, "get_context", ctx)
        gamma = cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid, pr.rule,
                                  pr.legendre, workers=2)
        n_max = pr.mapping.n_max
        assert [r.shape for r in ctx.results] == [
            (sum(len(g[2]) for g in job), n_max) for job in ctx.jobs]
        assert len(ctx.results) == 2
        assert all(len(pickle.dumps(r)) < gamma.values.nbytes
                   for r in ctx.results)

    @pytest.mark.parametrize("p_max", [4, 6])
    def test_pool_shares_balanced_by_rows(self, p_max, monkeypatch):
        # the default mapping lists the big (i, j) groups first; a split by
        # group count gave 2 workers 14 and 6 of the 20 rows at p 4
        import cmbproj.engine2d as e2
        pr = Problem(l_min=2, l_max=8, p_max=p_max, n_r=30)
        biggest = max(len(g[2]) for g in _pair_groups(pr.mapping))
        runs = {1: cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid,
                                     pr.rule, pr.legendre, workers=1)}
        for workers in (2, 3):
            jobs = []
            monkeypatch.setattr(e2, "get_context", RecordingContext(jobs))
            runs[workers] = cp.gamma2d_matrix(pr.tables, pr.mapping, pr.grid,
                                              pr.rule, pr.legendre,
                                              workers=workers)
            shares = [sum(len(g[2]) for g in job) for job in jobs]
            assert len(shares) == workers
            assert sum(shares) == pr.mapping.n_max
            assert max(shares) - min(shares) <= biggest
        assert np.array_equal(runs[1].values, runs[2].values)
        assert np.array_equal(runs[1].values, runs[3].values)
