import json
import math
import os
import stat
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest

import cmbproj as cp
from cmbproj.cli import _KEYS, build_parser, config_from_args
from cmbproj.cli import main as cli_main
from cmbproj.engine2d import default_mu_points
from cmbproj.gamma import GammaMatrix
from cmbproj.harness import MODES, ConfigError, GammaFormatError
from conftest import Problem


def _gamma(values):
    return GammaMatrix(np.asarray(values, dtype=np.float64),
                       {"engine": "modal2d", "l_min": 2, "l_max": 8,
                        "integrator": "trap"})


class TestRmsePercent:
    def test_identical_is_zero(self):
        a = _gamma([[1.0, 2.0], [3.0, 4.0]])
        assert cp.rmse_percent(a, a) == 0.0

    def test_scale_invariant(self):
        a = _gamma([[1.0, 2.0], [3.0, 4.0]])
        b = _gamma([[10.0, 20.0], [30.0, 40.0]])
        assert cp.rmse_percent(a, b) == pytest.approx(0.0, abs=1e-13)

    def test_opposite_unit_entries(self):
        # 1x1 matrices [1] and [-1]: unit-normalised difference is 2,
        # so the percentage RMSE is 200
        assert cp.rmse_percent(np.array([[1.0]]), np.array([[-1.0]])) \
            == pytest.approx(200.0, rel=1e-15)

    def test_hand_example(self):
        # unit vectors (1,0) and (0,1): diff (1,-1), mean square 1 -> 100%
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert cp.rmse_percent(a, b) == pytest.approx(100.0, rel=1e-14)

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            cp.rmse_percent(np.zeros((2, 2)), np.ones((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            cp.rmse_percent(np.ones((2, 2)), np.ones((2, 3)))


class TestMaxRelDeviation:
    def test_examples(self):
        a = np.array([[1.0, 0.0], [2.0, -4.0]])
        b = np.array([[1.1, 0.0], [2.0, -5.0]])
        # worst entry: |{-4}-{-5}| / 5 = 0.2
        assert cp.max_rel_deviation(a, b) == pytest.approx(0.2, rel=1e-14)

    def test_zero_zero_counts_as_zero(self):
        assert cp.max_rel_deviation(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_symmetric(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        assert cp.max_rel_deviation(a, b) == cp.max_rel_deviation(b, a)


def _bin_file(meta: bytes, meta_len=None) -> bytes:
    """A 2x2 MGAM version 2 file with the given meta bytes and length."""
    meta_len = len(meta) if meta_len is None else meta_len
    return (b"MGAM" + struct.pack("<IIII", 2, 2, 2, meta_len) + meta
            + np.arange(4.0).astype("<f8").tobytes())


# (format, file content, message) of files that must be refused
CORRUPT_FILES = {
    "csv-v1": ("csv", b"# modalgamma v1 engine=modal2d nmax=2 lmin=2 "
                      b"lmax=8 integrator=trap\n1,2\n3,4\n", "header"),
    "bin-v1": ("bin", b"MGAM" + struct.pack("<III", 1, 2, 2)
                      + np.arange(4.0).astype("<f8").tobytes(), "version"),
    "csv-invalid-json": ("csv", b"# modalgamma v2 2 2 {engine\n1,2\n3,4\n",
                         "meta"),
    "bin-invalid-json": ("bin", _bin_file(b"{engine"), "meta"),
    "csv-not-object": ("csv", b"# modalgamma v2 2 2 [1, 2]\n1,2\n3,4\n",
                       "not a JSON object"),
    "bin-not-object": ("bin", _bin_file(b"[1, 2]"), "not a JSON object"),
    # nesting past the interpreter's recursion limit
    "bin-deep-json": ("bin", _bin_file(b"[" * 100000), "meta"),
    "bin-meta-past-end": ("bin", _bin_file(b"{}", meta_len=1000),
                          "truncated meta"),
}


class TestSerialization:
    @pytest.fixture
    def matrix(self, rng):
        return _gamma(rng.standard_normal((5, 5)))

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_round_trip_exact(self, tmp_path, matrix, fmt):
        path = tmp_path / f"gamma.{fmt}"
        cp.serialize_gamma(matrix, path, fmt)
        loaded = cp.deserialize_gamma(path, fmt)
        # %.17g and little-endian f8 are both lossless for float64
        assert np.array_equal(loaded.values, matrix.values)
        assert loaded.meta == matrix.meta

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_square_round_trip(self, tmp_path, fmt):
        matrix = GammaMatrix(np.arange(6.0).reshape(2, 3), {})
        path = tmp_path / f"gamma.{fmt}"
        cp.serialize_gamma(matrix, path, fmt)
        loaded = cp.deserialize_gamma(path, fmt)
        assert np.array_equal(loaded.values, matrix.values)
        assert loaded.meta == {}

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)],
                             ids=["0x3", "3x0", "0x0"])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_empty_matrix_round_trip(self, tmp_path, fmt, shape):
        matrix = GammaMatrix(np.zeros(shape), {"engine": "none", "n": 0})
        path = tmp_path / f"gamma.{fmt}"
        cp.serialize_gamma(matrix, path, fmt)
        loaded = cp.deserialize_gamma(path, fmt)
        assert loaded.shape == shape
        assert np.array_equal(loaded.values, matrix.values)
        assert loaded.meta == matrix.meta

    def test_csv_header_records_provenance(self, tmp_path, matrix):
        path = tmp_path / "gamma.csv"
        cp.serialize_gamma(matrix, path, "csv")
        header = path.read_text().splitlines()[0]
        assert header == ("# modalgamma v2 5 5 "
                          + json.dumps(matrix.meta, sort_keys=True))

    def test_csv_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("not a header\n1,2\n3,4\n",
                     "# modalgamma v2 2 x {}\n1,2\n3,4\n",
                     "# modalgamma v2 2 2\n1,2\n3,4\n"):
            path.write_text(text)
            with pytest.raises(GammaFormatError, match="header"):
                cp.deserialize_gamma(path, "csv")

    @pytest.mark.parametrize("body", ["1,2\n3,x\n", "1,2\n3,nan\n",
                                      "1,2\n3,inf\n", "1,2\n3\n"],
                             ids=["non-numeric", "nan", "inf", "ragged"])
    def test_csv_corrupt_cells(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("# modalgamma v2 2 2 {}\n" + body)
        with pytest.raises(GammaFormatError):
            cp.deserialize_gamma(path, "csv")

    @pytest.mark.parametrize("case", list(CORRUPT_FILES))
    def test_corrupt_file_refused(self, tmp_path, case):
        fmt, content, message = CORRUPT_FILES[case]
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(content)
        with pytest.raises(GammaFormatError, match=message):
            cp.deserialize_gamma(path, fmt)

    def test_bin_nan_cell(self, tmp_path, matrix):
        path = tmp_path / "gamma.bin"
        cp.serialize_gamma(matrix, path, "bin")
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(GammaFormatError):
            cp.deserialize_gamma(path, "bin")

    def test_csv_dimension_mismatch(self, tmp_path, matrix):
        path = tmp_path / "gamma.csv"
        cp.serialize_gamma(matrix, path, "csv")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")   # drop last row
        with pytest.raises(GammaFormatError, match="dimension mismatch"):
            cp.deserialize_gamma(path, "csv")

    def test_bin_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(GammaFormatError):
            cp.deserialize_gamma(path, "bin")

    def test_bin_truncated_payload(self, tmp_path, matrix):
        path = tmp_path / "gamma.bin"
        cp.serialize_gamma(matrix, path, "bin")
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(GammaFormatError, match="truncated"):
            cp.deserialize_gamma(path, "bin")

    def test_unknown_format(self, tmp_path, matrix):
        with pytest.raises(ValueError):
            cp.serialize_gamma(matrix, tmp_path / "x", "json")

    @pytest.mark.parametrize("writer", ["gamma-csv", "rows-csv"])
    def test_failed_write_keeps_earlier_file(self, tmp_path, matrix, writer,
                                             monkeypatch, capsys):
        class Unprintable:
            def __str__(self):
                raise OSError("disk full")

        path = tmp_path / "out.csv"
        path.write_text("earlier\n")
        if writer == "gamma-csv":
            # the second row fails to format after the first is written
            matrix.values = np.array([[1.0] * 5, ["x"] * 5], dtype=object)
            with pytest.raises(ValueError):
                cp.serialize_gamma(matrix, path, "csv")
        else:
            # a study row that fails to format, written by the CLI
            monkeypatch.setattr("cmbproj.cli.run_convergence_study",
                                lambda config: [{"a": 1.0},
                                                {"a": Unprintable()}])
            assert cli_main(["--mode", "convergence", "--lmax", "8",
                             "--out", str(path)]) == 4
            assert "disk full" in capsys.readouterr().err
        assert path.read_text() == "earlier\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_write_to_pipe_in_place(self, tmp_path, matrix):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        cp.serialize_gamma(matrix, fifo, "bin")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["pipe"]
        meta = json.dumps(matrix.meta, sort_keys=True).encode("utf-8")
        assert received[0][:4] == b"MGAM"
        assert len(received[0]) == 20 + len(meta) + 200
        assert received[0][20:20 + len(meta)] == meta


class TestEngineMatrixFiles:
    """Every engine's and oracle's matrix reads back bitwise, with its
    whole meta."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return Problem(l_min=2, l_max=8, p_max=2, n_r=20)

    @pytest.fixture(scope="class")
    def matrices(self, tiny):
        args = (tiny.tables, tiny.mapping, tiny.grid)
        trap, _, spline = cp.gamma3d_matrices(*args)
        return {
            "gamma2d": cp.gamma2d_matrix(*args, tiny.rule, tiny.legendre,
                                         integrator="hermite", workers=2),
            "gamma3d-gosper": cp.gamma3d_matrix(*args, "gosper", "spline",
                                                block=16),
            "gamma3d-exact": cp.gamma3d_matrix(*args, "exact", workers=2),
            "gamma3d-stack-trap": trap,
            "gamma3d-stack-spline": spline,
            "gamma2d-naive": cp.gamma2d_matrix_naive(*args, tiny.rule,
                                                     tiny.legendre),
            "gamma3d-naive": cp.gamma3d_naive(*args, "exact"),
            "gamma3d-unordered": cp.gamma3d_unordered_reference(*args),
        }

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_round_trip(self, tmp_path, matrices, fmt):
        for name, g in matrices.items():
            path = tmp_path / f"{name}.{fmt}"
            cp.serialize_gamma(g, path, fmt)
            back = cp.deserialize_gamma(path, fmt)
            assert np.array_equal(back.values, g.values), name
            assert back.meta == g.meta, name

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_numpy_integer_knobs_round_trip(self, tmp_path, tiny, fmt):
        g3 = cp.gamma3d_matrix(tiny.tables, tiny.mapping, tiny.grid,
                               block=np.int64(16), workers=np.int64(1))
        g2 = cp.gamma2d_matrix(tiny.tables, tiny.mapping, tiny.grid,
                               tiny.rule, tiny.legendre,
                               workers=np.int64(2))
        for g in (g3, g2):
            assert all(type(g.meta[key]) is int
                       for key in ("workers", "l_min", "l_max"))
            path = tmp_path / f"{g.meta['engine']}.{fmt}"
            cp.serialize_gamma(g, path, fmt)
            back = cp.deserialize_gamma(path, fmt)
            assert np.array_equal(back.values, g.values)
            assert back.meta == g.meta
        assert type(g3.meta["block"]) is int
        assert type(g2.meta["n_mu"]) is int


class TestRunConfig:
    def test_defaults_valid(self):
        cp.RunConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"mode": "solve"},
        {"l_min": 1},
        {"l_min": 10, "l_max": 5},
        {"p_max": 0},
        {"r_samples": 5},
        {"integrator": "simpson"},
        {"h2_mode": "racah"},
        {"block": 0},
        {"workers": 0},
        {"fmt": "json"},
        {"l_min": 3, "l_max": 3},
        {"l_min": 41, "l_max": 41},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            cp.RunConfig(**kwargs).validate()

    def test_workers_capped_at_cpu_count(self, monkeypatch, capsys):
        # each worker is a process, so the cap is checked before any pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cp.RunConfig(workers=2).validate()
        with pytest.raises(ConfigError, match="workers must be <= 2"):
            cp.RunConfig(workers=3).validate()
        assert cli_main(["--workers", "100000"]) == 2
        assert "workers must be <= 2" in capsys.readouterr().err
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        cp.RunConfig(workers=1).validate()
        with pytest.raises(ConfigError, match="workers must be <= 1"):
            cp.RunConfig(workers=2).validate()

    def test_mu_points_exactness_bound(self, tmp_path, capsys):
        # the mu rule follows --lmax, so the node count is no setting; a
        # library caller's ceil((3*16+1)/2) = 25-node rule, the exactness
        # bound, reproduces the direct exact engine
        with pytest.raises(SystemExit) as exc:
            cli_main(["--mode", "gamma2d", "--lmax", "16",
                      "--mu-points", "25"])
        assert exc.value.code == 2
        f = tmp_path / "run.cfg"
        f.write_text("mu-points=25\n")
        assert cli_main(["--mode", "gamma2d", "--config", str(f)]) == 2
        assert "unknown key 'mu-points'" in capsys.readouterr().err
        p = Problem(2, 16, 2, 30, n_mu=25)
        g2 = cp.gamma2d_matrix(p.tables, p.mapping, p.grid, p.rule,
                               p.legendre)
        g3 = cp.gamma3d_matrix(p.tables, p.mapping, p.grid, h2_mode="exact")
        assert cp.max_rel_deviation(g2, g3) < 1e-9

    def test_mu_points_default_tracks_lmax(self):
        for l_max in (8, 16, 32):
            g = cp.run_gamma(cp.RunConfig(mode="gamma2d", l_max=l_max,
                                          p_max=2, r_samples=12))
            assert g.meta["n_mu"] == default_mu_points(l_max)

    def test_header_lines_fully_resolved(self):
        lines = cp.RunConfig(l_max=16).header_lines()
        assert not any(line.startswith("# mu_points=") for line in lines)
        assert "# l_max=16" in lines
        assert all(line.startswith("# ") for line in lines)


class TestRunModes:
    CFG = dict(l_min=2, l_max=12, p_max=3, r_samples=30)

    def test_run_gamma_both_engines_agree(self):
        g2 = cp.run_gamma(cp.RunConfig(mode="gamma2d", **self.CFG))
        g3 = cp.run_gamma(cp.RunConfig(mode="gamma3d", h2_mode="exact",
                                       **self.CFG))
        assert cp.max_rel_deviation(g2, g3) < 1e-9

    def test_run_gamma_rejects_non_matrix_mode(self):
        with pytest.raises(ConfigError):
            cp.run_gamma(cp.RunConfig(mode="crosscheck", **self.CFG))

    def test_crosscheck_report(self):
        report = cp.run_crosscheck(cp.RunConfig(mode="crosscheck",
                                                **self.CFG))
        assert report.max_rel_dev < 1e-9
        assert report.rmse_percent < 1e-7
        # sign mixing across triples can push the worst *entry* deviation
        # past the worst raw geometric-weight error, so only a loose upper
        # bound is asserted alongside the reported envelope
        assert 0 < report.gosper_max_rel_dev < 0.2
        assert 0.01 < report.gosper_h2_error_bound < 0.025
        assert report.runtime_2d > 0 and report.runtime_3d > 0

    def test_convergence_rows(self):
        cfg = cp.RunConfig(mode="convergence", l_min=2, l_max=8, p_max=2)
        rows = cp.run_convergence_study(cfg, ladder=(30, 60))
        assert len(rows) == 6  # 3 integrators x 2 grid sizes
        for r in rows:
            assert r["integrator"] in ("trap", "hermite", "spline")
            assert r["seconds"] > 0
            # the synthetic q_tilde factorises as q(l) * w(r), so the
            # radial integral is a global scalar and the unit-normalised
            # RMSE against gold cancels it: every ladder entry must sit
            # at rounding level (the grid-refinement *trend* lives in the
            # scalar-integral study, not here)
            assert r["rmse_percent"] < 1e-10

    def test_convergence_reuses_gold(self, monkeypatch):
        import cmbproj.harness as harness
        calls = []
        real = harness.gamma3d_matrices
        def counting(*args, **kwargs):
            calls.append((len(args[2]), kwargs["integrators"]))
            return real(*args, **kwargs)
        monkeypatch.setattr(harness, "gamma3d_matrices", counting)
        monkeypatch.setattr(harness, "gamma3d_matrix", None)
        cfg = cp.RunConfig(mode="convergence", l_min=2, l_max=8, p_max=2)
        rows = cp.run_convergence_study(cfg)
        # one three-integrator sweep per distinct R, gold's R first
        assert [n for n, _ in calls] == [1768, 54, 108, 216, 432, 864]
        assert all(i == ("trap", "hermite", "spline") for _, i in calls)
        gold = [r for r in rows if r["integrator"] == "spline"
                and r["r_samples"] == harness.GOLD_R]
        assert len(gold) == 1 and gold[0]["rmse_percent"] == 0.0
        for n_r in harness.CONVERGENCE_LADDER:
            seconds = {r["seconds"] for r in rows if r["r_samples"] == n_r}
            assert len(seconds) == 1 and seconds.pop() > 0
        calls.clear()
        ladder = (30, 60)
        cp.run_convergence_study(cfg, ladder=ladder)
        assert [n for n, _ in calls] == [harness.GOLD_R, *ladder]


def _memo_arrays(kind, value):
    """The arrays of one kept input of the memo ``kind``."""
    if kind == "tables":
        grid, tables = value
        return [grid.r, tables.q, tables.q_tilde, tables.C, tables.v]
    if kind == "mapping":
        return [value.entries]
    if kind == "mu":
        rule, legendre = value
        return [rule.nodes, rule.weights, legendre]
    return [value.l1, value.l2, value.l3]


class TestInputMemo:
    """run_gamma keeps a configuration's inputs per process; results stay
    those of freshly built inputs."""

    CFG = dict(l_min=2, l_max=12, p_max=3, r_samples=30)

    @pytest.fixture(autouse=True)
    def empty_memos(self):
        import cmbproj.harness as harness
        for memo in harness._MEMOS.values():
            memo.clear()
        yield harness._MEMOS
        for memo in harness._MEMOS.values():
            memo.clear()

    @staticmethod
    def _fresh(config):
        """The matrix of ``config`` from inputs built by the public
        constructors."""
        grid = cp.default_radial_grid(config.r_samples)
        tables = cp.synthesize_basis(config.p_max, config.l_min,
                                     config.l_max, grid)
        mapping = cp.default_mode_mapping(config.p_max)
        if config.mode == "gamma2d":
            rule = cp.gauss_legendre(default_mu_points(config.l_max))
            return cp.gamma2d_matrix(tables, mapping, grid, rule,
                                     cp.legendre_table(config.l_max, rule),
                                     integrator=config.integrator)
        return cp.gamma3d_matrix(tables, mapping, grid,
                                 h2_mode=config.h2_mode,
                                 integrator=config.integrator,
                                 block=config.block)

    @pytest.mark.parametrize("integrator", ["trap", "hermite", "spline"])
    @pytest.mark.parametrize("mode,h2_mode", [("gamma2d", "exact"),
                                              ("gamma3d", "gosper"),
                                              ("gamma3d", "exact")])
    def test_repeats_match_fresh_inputs(self, empty_memos, mode, h2_mode,
                                        integrator):
        config = cp.RunConfig(mode=mode, h2_mode=h2_mode,
                              integrator=integrator, **self.CFG)
        want = self._fresh(config)
        for _ in range(3):
            got = cp.run_gamma(config)
            assert np.array_equal(got.values, want.values)
            assert got.meta == want.meta
        kinds = {"tables", "mapping",
                 "mu" if mode == "gamma2d" else "domain"}
        assert {k for k, memo in empty_memos.items() if memo} == kinds
        assert all(len(memo) <= 1 for memo in empty_memos.values())

    def test_kept_arrays_are_read_only(self, empty_memos):
        for mode in ("gamma2d", "gamma3d"):
            cp.run_gamma(cp.RunConfig(mode=mode, **self.CFG))
        for kind, memo in empty_memos.items():
            assert len(memo) == 1, kind
            for array in _memo_arrays(kind, next(iter(memo.values()))):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 0
        # the public constructors still return fresh, writable objects
        (grid, tables), = empty_memos["tables"].values()
        fresh = cp.synthesize_basis(3, 2, 12, cp.default_radial_grid(30))
        assert fresh is not tables
        assert fresh.q_tilde.flags.writeable
        assert cp.default_radial_grid(30).r.flags.writeable
        assert cp.default_mode_mapping(3).entries.flags.writeable
        assert cp.enumerate_domain(2, 12).l3.flags.writeable

    def test_mapping_file_read_on_every_call(self, tmp_path):
        path = tmp_path / "run.map"
        default = cp.default_mode_mapping(3)
        first = cp.ModeMapping(default.entries[::-1], 3)
        second = cp.ModeMapping(default.entries[:4], 3)
        config = cp.RunConfig(mode="gamma3d", mapping=str(path), **self.CFG)
        for mapping in (first, second):
            cp.save_mode_mapping(mapping, path)
            got = cp.run_gamma(config)
            assert got.meta["mapping"] == mapping.fingerprint()
            assert got.shape == (mapping.n_max, mapping.n_max)

    def test_entry_count_bounded(self, empty_memos):
        import cmbproj.harness as harness
        bound = harness._MEMO_ENTRIES
        radii = range(12, 12 + bound + 5)
        for n_r in radii:
            cp.run_gamma(cp.RunConfig(mode="gamma3d", l_min=2, l_max=4,
                                      p_max=1, r_samples=n_r))
        tables = empty_memos["tables"]
        assert len(tables) == bound
        # the least recently used are dropped first
        assert [key[3] for key in tables] == list(radii)[-bound:]

    def test_oversize_input_built_not_kept(self, empty_memos):
        import cmbproj.harness as harness
        config = cp.RunConfig(mode="gamma2d", l_min=2, l_max=80, p_max=1,
                              r_samples=1768)
        grid = cp.default_radial_grid(config.r_samples)
        tables = cp.synthesize_basis(1, 2, 80, grid)
        assert tables.q_tilde.nbytes > harness._MEMO_BYTES
        want = self._fresh(config)
        for _ in range(2):
            got = cp.run_gamma(config)
            assert np.array_equal(got.values, want.values)
            assert got.meta == want.meta
        assert not empty_memos["tables"]
        assert len(empty_memos["mu"]) == 1

    def test_crosscheck_and_study_read_the_memos(self, empty_memos,
                                                 monkeypatch):
        import cmbproj.engine3d as e3
        import cmbproj.harness as harness
        check = cp.RunConfig(mode="crosscheck", **self.CFG)
        study = cp.RunConfig(mode="convergence", l_min=2, l_max=8, p_max=2)
        # the figures from inputs built by the public constructors
        g2 = self._fresh(replace(check, mode="gamma2d"))
        g3, g3_gosper = (self._fresh(replace(check, mode="gamma3d",
                                             h2_mode=h2_mode))
                         for h2_mode in ("exact", "gosper"))
        domain = cp.enumerate_domain(2, 12)
        ratio = cp.h2_gosper(domain.l1, domain.l2, domain.l3) \
            / cp.h2_exact(domain.l1, domain.l2, domain.l3)
        sweeps = {}
        for n_r in (harness.GOLD_R, 30):
            grid = cp.default_radial_grid(n_r)
            sweeps[n_r] = cp.gamma3d_matrices(
                cp.synthesize_basis(2, 2, 8, grid), cp.default_mode_mapping(2),
                grid, h2_mode=study.h2_mode)
        gold = sweeps[harness.GOLD_R][2]

        calls = []
        def counted(l_min, l_max):
            calls.append((l_min, l_max))
            return cp.enumerate_domain(l_min, l_max)
        monkeypatch.setattr(harness, "enumerate_domain", counted)
        monkeypatch.setattr(e3, "enumerate_domain", counted)
        report = cp.run_crosscheck(check)
        rows = cp.run_convergence_study(study, ladder=(30,))
        assert calls == [(2, 12), (2, 8)]
        assert all(empty_memos.values())
        assert list(empty_memos["domain"]) == calls
        assert list(empty_memos["tables"]) == [
            (3, 2, 12, 30), (2, 2, 8, harness.GOLD_R), (2, 2, 8, 30)]

        assert report.rmse_percent == cp.rmse_percent(g2, g3)
        assert report.max_rel_dev == cp.max_rel_deviation(g2, g3)
        assert report.gosper_max_rel_dev == cp.max_rel_deviation(g3_gosper,
                                                                 g3)
        assert report.gosper_h2_error_bound == float(
            np.max(np.abs(ratio - 1.0)))
        assert [(row["integrator"], row["rmse_percent"]) for row in rows] \
            == [(name, cp.rmse_percent(g, gold))
                for name, g in zip(("trap", "hermite", "spline"), sweeps[30])]


def test_workload_sizes_never_refused():
    # every workload has p_max <= 4, l_max <= 80, R <= 1768 and at most
    # two workers; the tables and the domain have their own such tests
    from cmbproj.basis import _check_mapping_budget
    from cmbproj.engine2d import _check_sweep_budget
    from cmbproj.engine3d import _check_accumulator_budget
    from cmbproj.gamma import MEMORY_BUDGET
    for p_max in range(1, 5):
        n_max = math.comb(p_max + 2, 3)
        for need in (_check_mapping_budget(n_max),
                     _check_sweep_budget(p_max, n_max, 1768,
                                         default_mu_points(80), 2),
                     _check_accumulator_budget(n_max, 3, 2)):
            assert need < MEMORY_BUDGET // 1000


class TestConfigFile:
    # one non-default, valid value per key of the flag/config-file table
    SAMPLES = {"mode": "gamma3d", "lmin": "3", "lmax": "10", "pmax": "2",
               "mapping": "map.txt", "r-samples": "30",
               "integrator": "spline", "h2": "exact", "block": "8", "workers": "2", "out": "x.csv",
               "format": "bin"}

    @pytest.mark.parametrize("key", list(_KEYS))
    def test_key_sets_field_as_flag_and_file_line(self, tmp_path,
                                                  monkeypatch, key):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # workers=2 valid
        field = _KEYS[key].field
        raw = self.SAMPLES[key]
        f = tmp_path / "run.cfg"
        f.write_text(f"{key}={raw}\n")
        from_flag = config_from_args(
            build_parser().parse_args([f"--{key}", raw]))
        from_file = config_from_args(
            build_parser().parse_args(["--config", str(f)]))
        expected = _KEYS[key].type(raw)
        assert getattr(from_flag, field) == expected
        assert getattr(from_file, field) == expected
        assert getattr(cp.RunConfig(), field) != expected

    def test_removed_bench_settings_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--mode", "bench"])
        assert exc.value.code == 2
        f = tmp_path / "run.cfg"
        f.write_text("bench-repeats=5\n")
        assert cli_main(["--config", str(f)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_file_then_flag_override(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment line\nlmax = 10\nintegrator = hermite\n")
        args = build_parser().parse_args(
            ["--config", str(f), "--integrator", "spline"])
        config = config_from_args(args)
        assert config.l_max == 10
        assert config.integrator == "spline"   # flag wins

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("lmax=10\nthreads=4\n")
        from cmbproj.cli import _parse_config_file
        with pytest.raises(ConfigError, match="unknown key"):
            _parse_config_file(f)

    def test_bad_value(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("lmax=ten\n")
        from cmbproj.cli import _parse_config_file
        with pytest.raises(ConfigError, match="bad value"):
            _parse_config_file(f)


class TestCli:
    ARGS = ["--lmin", "2", "--lmax", "8", "--pmax", "2",
            "--r-samples", "30"]

    def test_gamma2d_to_file(self, tmp_path, capsys):
        out = tmp_path / "gamma.csv"
        rc = cli_main(["--mode", "gamma2d", *self.ARGS, "--out", str(out)])
        assert rc == 0
        loaded = cp.deserialize_gamma(out, "csv")
        assert loaded.shape == (4, 4)

    def test_gamma3d_binary(self, tmp_path):
        out = tmp_path / "gamma.bin"
        rc = cli_main(["--mode", "gamma3d", *self.ARGS,
                       "--out", str(out), "--format", "bin"])
        assert rc == 0
        assert out.read_bytes()[:4] == b"MGAM"
        loaded = cp.deserialize_gamma(out, "bin")
        assert loaded.shape == (4, 4)
        # the file keeps the engine's provenance, not just the values
        g = cp.run_gamma(cp.RunConfig(mode="gamma3d", l_min=2, l_max=8,
                                      p_max=2, r_samples=30))
        assert loaded.meta == g.meta
        assert loaded.meta["h2_mode"] == "gosper"
        assert loaded.meta["integrator"] == "trap"
        assert {"tables", "grid", "mapping"} <= loaded.meta.keys()
        assert np.array_equal(loaded.values, g.values)

    @pytest.mark.parametrize("case", list(CORRUPT_FILES))
    def test_corrupt_matrix_file_exit_4(self, tmp_path, monkeypatch,
                                        capsys, case):
        fmt, content, _ = CORRUPT_FILES[case]
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(content)
        monkeypatch.setattr("cmbproj.cli.run_gamma",
                            lambda config: cp.deserialize_gamma(path, fmt))
        assert cli_main(["--mode", "gamma2d", *self.ARGS]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_crosscheck_stdout(self, capsys):
        rc = cli_main(["--mode", "crosscheck", *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max_rel_dev=" in out and "rmse_percent=" in out

    def test_crosscheck_to_file(self, tmp_path, capsys):
        out = tmp_path / "cc.txt"
        rc = cli_main(["--mode", "crosscheck", *self.ARGS, "--out", str(out)])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# ")
        assert "max_rel_dev=" in text and "rmse_percent=" in text

    def test_convergence_file_matches_stdout(self, tmp_path, capsys,
                                             monkeypatch):
        # one study for both runs: its seconds column is a wall time
        rows = cp.run_convergence_study(
            cp.RunConfig(mode="convergence", l_min=2, l_max=8, p_max=2),
            ladder=(30, 60))
        monkeypatch.setattr("cmbproj.cli.run_convergence_study",
                            lambda config: rows)
        assert cli_main(["--mode", "convergence", *self.ARGS]) == 0
        printed = capsys.readouterr().out.splitlines()
        out = tmp_path / "conv.csv"
        assert cli_main(["--mode", "convergence", *self.ARGS,
                         "--out", str(out)]) == 0
        written = out.read_text(encoding="utf-8").splitlines()
        # the provenance header names the output path, and only there
        assert written == [f"# out={out}" if line == "# out=None" else line
                           for line in printed]

    def test_config_error_exit_2(self, capsys):
        assert cli_main(["--lmin", "5", "--lmax", "3"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    def test_no_valid_triple_exit_2(self, mode, capsys):
        # a single odd l has no triple with an even sum; crosscheck and
        # convergence used to fail normalising a zero matrix (exit 1), and
        # gamma2d and gamma3d printed an all-zero matrix
        rc = cli_main(["--mode", mode, "--lmin", "3", "--lmax", "3",
                       "--pmax", "2", "--r-samples", "12"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["gamma2d", "gamma3d", "crosscheck"])
    def test_single_even_l_runs(self, mode, capsys):
        rc = cli_main(["--mode", mode, "--lmin", "4", "--lmax", "4",
                       "--pmax", "2", "--r-samples", "12"])
        assert rc == 0

    def test_bad_mapping_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "map.txt"
        bad.write_text("modalmap v1 p_max=2 n_max=1\n0 0 1 0\n")
        rc = cli_main(["--mode", "gamma2d", *self.ARGS,
                       "--mapping", str(bad)])
        assert rc == 2

    def test_empty_mapping_file_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.map"
        empty.write_text("modalmap v1 p_max=2 n_max=0\n")
        rc = cli_main(["--mode", "gamma2d", *self.ARGS,
                       "--mapping", str(empty)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_4(self, capsys):
        assert cli_main(["--config", "/nonexistent/run.cfg"]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_numeric_error_exit_3(self, capsys, monkeypatch):
        import cmbproj.harness as harness
        def boom(config):
            raise FloatingPointError("overflow in sweep")
        monkeypatch.setattr(harness, "run_gamma", boom)
        monkeypatch.setattr("cmbproj.cli.run_gamma", boom)
        assert cli_main(["--mode", "gamma2d", *self.ARGS]) == 3
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["gamma2d", "crosscheck"])
    def test_ptable_budget_before_mu_rule(self, mode, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"a {n}-node mu rule was built")
        monkeypatch.setattr("cmbproj.harness.gauss_legendre", refuse)
        monkeypatch.setattr("cmbproj.quadrature.gauss_legendre", refuse)
        # the P table of the 30003-node rule is 1 * 1 * 12 * 30003 * 8
        # bytes = 2.9 MB, within the 2 GiB budget; its Legendre table,
        # 20001 * 30003 * 8 bytes = 4.8 GB, is not
        rc = cli_main(["--mode", mode, "--lmax", "20000", "--pmax", "1",
                       "--r-samples", "12"])
        assert rc == 3
        need = 8 * (12 * (30003 + 19999) + 20001 * 30003)
        assert f"need {need} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["gamma3d", "convergence"])
    def test_domain_budget_before_enumeration(self, mode, capsys,
                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the triple domain was enumerated")
        monkeypatch.setattr(np, "triu_indices", refuse)
        # 334,831,501 triples: their l1, l2 and l3 alone take 8.0 GB
        rc = cli_main(["--mode", mode, "--lmax", "2000", "--pmax", "1",
                       "--r-samples", "12"])
        assert rc == 3
        assert "triple domain needs" in capsys.readouterr().err

    def test_crosscheck_domain_budget_before_mu_rule(self, capsys,
                                                     monkeypatch):
        def refuse(n):
            raise AssertionError(f"a {n}-node mu rule was built")
        # AssertionError, which no exit code maps, so a rule built before
        # the domain is refused fails the test
        monkeypatch.setattr("cmbproj.harness.gauss_legendre", refuse)
        rc = cli_main(["--mode", "crosscheck", "--lmax", "2000",
                       "--pmax", "1", "--r-samples", "12"])
        assert rc == 3
        assert "triple domain needs" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        # the domain of l 2..2000 takes 16.2 GB; the tables, 288 MB, fit
        (["--mode", "gamma3d", "--lmax", "2000", "--pmax", "4",
          "--r-samples", "4000"], "triple domain needs"),
        # the P table's set-up takes 2.19 GB; the tables, 122 MB, fit
        (["--mode", "gamma2d", "--lmax", "1000", "--pmax", "8",
          "--r-samples", "1700"], "P table, its build and the Legendre"),
        # a block of 100000 triples takes 4.55 GB; the tables, 143 MB, fit
        (["--mode", "gamma3d", "--lmax", "200", "--pmax", "4",
          "--r-samples", "20000", "--block", "100000"],
         "a block of 100000 triples needs 4553600000 bytes"),
    ])
    def test_refused_before_grid_and_tables(self, args, message, capsys,
                                            monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid or the tables were built")
        monkeypatch.setattr("cmbproj.harness.default_radial_grid", refuse)
        monkeypatch.setattr("cmbproj.harness.synthesize_basis", refuse)
        assert cli_main(args) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        # 5984 modes: T [n_max, p^3] takes 1.57 GB, and three
        # [n_max, n_max] arrays 0.86 GB
        (["--mode", "gamma2d", "--pmax", "32", "--lmax", "8",
          "--r-samples", "12"], "separable sweep's mode-space arrays need"),
        # 19600 modes: a 3.1 GB accumulator
        (["--mode", "gamma3d", "--pmax", "48", "--lmax", "8",
          "--r-samples", "12"], "direct sweep's matrix accumulators need"),
        # 11480 modes: three 1.05 GB accumulators, one per integrator
        (["--mode", "convergence", "--pmax", "40", "--lmax", "8"],
         "direct sweep's matrix accumulators need"),
        # 1.34e9 modes: the default mapping alone would take ~370 GB
        (["--mode", "gamma3d", "--pmax", "2000", "--r-samples", "12"],
         "a mode mapping of 1335334000 entries needs"),
    ])
    def test_mode_space_refused_before_tables(self, args, message, capsys,
                                              monkeypatch):
        def refuse(*args):
            raise AssertionError("the tables or the mapping were built")
        monkeypatch.setattr("cmbproj.harness.synthesize_basis", refuse)
        monkeypatch.setattr("cmbproj.harness.default_mode_mapping", refuse)
        monkeypatch.setattr("cmbproj.basis.default_mode_mapping", refuse)
        assert cli_main(args) == 3
        assert message in capsys.readouterr().err

    def test_mapping_file_sizes_the_mode_space(self, tmp_path, capsys):
        # one mode at p_max 48, where the default mapping's 19600 are
        # refused: the counts use the file's n_max
        path = tmp_path / "one.map"
        cp.save_mode_mapping(cp.ModeMapping(np.array([[0, 0, 47]]), 48),
                             path)
        assert cli_main(["--mode", "gamma3d", "--pmax", "48", "--lmax", "8",
                         "--r-samples", "12", "--mapping", str(path)]) == 0
        assert "matrix 1x1" in capsys.readouterr().out

    def test_table_budget_before_grid(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid or the tables were built")
        monkeypatch.setattr("cmbproj.harness.default_radial_grid", refuse)
        monkeypatch.setattr("cmbproj.harness.synthesize_basis", refuse)
        # q_tilde alone would take 4 * 70000 * 999 * 8 bytes = 2.24 GB
        rc = cli_main(["--mode", "gamma2d", "--pmax", "4", "--lmax", "1000",
                       "--r-samples", "70000"])
        assert rc == 3
        need = 9 * 4 * 70000 * 999 + 136 * 70000
        assert f"basis tables need {need} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_gamma2d_file_matches_run_gamma(self, tmp_path, fmt):
        out = tmp_path / f"gamma.{fmt}"
        rc = cli_main(["--mode", "gamma2d", *self.ARGS, "--out", str(out),
                       "--format", fmt])
        assert rc == 0
        loaded = cp.deserialize_gamma(out, fmt)
        g = cp.run_gamma(cp.RunConfig(mode="gamma2d", l_min=2, l_max=8,
                                      p_max=2, r_samples=30))
        assert loaded.meta == g.meta
        assert np.array_equal(loaded.values, g.values)

    def test_convergence_rows_match_study(self, capsys):
        assert cli_main(["--mode", "convergence", *self.ARGS]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("# ")]
        rows = cp.run_convergence_study(
            cp.RunConfig(mode="convergence", l_min=2, l_max=8, p_max=2,
                         r_samples=30))
        assert lines[0] == "integrator,r_samples,rmse_percent,seconds"
        # every column but the wall time
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"{r['integrator']},{r['r_samples']},{r['rmse_percent']:.17g}"
            for r in rows]

    @pytest.mark.parametrize("flag,content", [
        ("--config", b"lmax=8\n# r\xe9sum\xff\n"),
        ("--mapping", b"modalmap v1 p_max=2 n_max=1\n0 0 0 \xff\n")])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, flag, content):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        rc = cli_main(["--mode", "gamma2d", *self.ARGS, flag, str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and f"{bad}: not UTF-8" in err
        assert "Traceback" not in err

    def test_console_script_installed(self):
        import shutil
        import subprocess
        exe = shutil.which("cmbproj")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--lmin", "9", "--lmax", "3"],
                              capture_output=True, text=True)
        assert proc.returncode == 2


class TestAllocatorPolicy:
    ARGS = ["--mode", "gamma2d", "--lmin", "2", "--lmax", "8", "--pmax", "2",
            "--r-samples", "30"]

    @staticmethod
    def _run(capsys, argv):
        rc = cli_main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    def test_thresholds_set_before_arguments_parsed(self, monkeypatch):
        import ctypes

        import cmbproj.cli as cli
        calls = []

        class Libc:
            def __init__(self, name):
                assert name is None

            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        def parser():
            calls.append("parse")
            return build_parser()
        monkeypatch.setattr(ctypes, "CDLL", Libc)
        monkeypatch.setattr(cli, "build_parser", parser)
        assert cli_main(["--lmin", "5", "--lmax", "3"]) == 2
        # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
        assert calls == [(-3, 32 << 20), (-1, 64 << 20), "parse"]

    @staticmethod
    def _no_mallopt(name):
        return object()

    @staticmethod
    def _unloadable(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("stub", ["_no_mallopt", "_unloadable"])
    @pytest.mark.parametrize("argv", [ARGS, ["--lmin", "5", "--lmax", "3"]])
    def test_no_op_without_mallopt(self, capsys, monkeypatch, stub, argv):
        import ctypes
        expected = self._run(capsys, argv)
        monkeypatch.setattr(ctypes, "CDLL", getattr(self, stub))
        assert self._run(capsys, argv) == expected

    def test_ladder_process_reuses_its_pages(self):
        # one process's page faults: ~85,000 at glibc's default thresholds,
        # most of them the direct engine's slab temporaries faulted in
        # afresh; importing numpy and cmbproj takes ~11,000
        import os
        import platform
        import resource
        import subprocess
        import sys
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("the policy is set through glibc's mallopt")
        src = os.path.dirname(os.path.dirname(cp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "cmbproj.cli", "--mode",
                        "convergence", "--lmax", "16", "--pmax", "3"],
                       env=env, capture_output=True, check=True)
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt \
            - before
        assert faults < 20000
