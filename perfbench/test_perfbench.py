"""Checks of the benchmark's own verification and tracing.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import workloads as wk  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


class SmallDirect(wk.DirectParallel):
    L_MAX, N_R = 16, 54
    workers = 1


class SmallMix(wk.RequestMix):
    PS, RS, LS = (2, 3), (54,), (10,)


def _ops(wl, count):
    wl.build()
    reqs = wl.requests()
    out = []
    for _ in range(count):
        req = next(reqs)
        out.append((req, wl.run(req), None, 0.0, False))
    return out


def _perturb(gamma, cell, rel=1e-8):
    """Copy of ``gamma`` with one entry scaled by 1 + rel, or moved by one
    ulp when rel is None."""
    values = gamma.values.copy()
    values[cell] = (np.nextafter(values[cell], np.inf) if rel is None
                    else values[cell] * (1.0 + rel))
    return type(gamma)(values, dict(gamma.meta))


def test_perturbed_matrix_is_counted_as_failed(tmp_path):
    wl = SmallDirect(7, str(tmp_path), {})
    records = _ops(wl, 2)
    assert run.verify(wl, records) == [None, None]
    req, gamma = records[1][0], records[1][1]
    records[1] = (req, _perturb(gamma, (1, 2)), None, 0.0, False)
    failures = run.verify(wl, records)
    assert failures[0] is None and "Mismatch" in failures[1]


def test_request_mix_checks_engines_exports_and_repeats(tmp_path):
    wl = SmallMix(3, str(tmp_path), {})
    records = _ops(wl, 2 * len(SmallMix.PS) * len(SmallMix.ENGINES))
    assert all(f is None for f in run.verify(wl, records))
    assert any(r[0].fmt for r in records)

    repeat = records[-1]
    req, (gamma, back) = repeat[0], repeat[1]
    bad = [(req, (_perturb(gamma, (0, 0), None), back), None, 0.0, False)]
    assert "differs" in run.verify(wl, bad)[0]

    exported = next(r for r in records if r[0].fmt)
    req, (gamma, back) = exported[0], exported[1]
    bad = [(req, (gamma, _perturb(back, (0, 0), None)), None, 0.0, False)]
    assert "read back" in run.verify(wl, bad)[0]

    wl._first.clear()
    req, (gamma, back) = records[0][0], records[0][1]
    bad = [(req, (_perturb(gamma, (0, 0)), back), None, 0.0, False)]
    assert "Mismatch" in run.verify(wl, bad)[0]


def test_ladder_csv_check(tmp_path):
    wl = wk.ConvergenceLadder(1, str(tmp_path), {})
    wl.build()
    rows = [f"{i},{r},{1e-14 * (k + 1)!r},0.01"
            for k, (i, r) in enumerate((i, r) for i in wk.INTEGRATORS
                                       for r in wl.LADDER)]
    good = tmp_path / "good.csv"
    good.write_text("# lmax=16\nintegrator,r_samples,rmse_percent,seconds\n"
                    + "\n".join(rows) + "\n")
    wl.verify(None, str(good))
    for broken in (rows[:-1], rows[:-1] + ["spline,1768,0.5,0.01"],
                   rows[:-1] + ["spline,1768,nan,0.01"]):
        path = tmp_path / "bad.csv"
        path.write_text("integrator,r_samples,rmse_percent,seconds\n"
                        + "\n".join(broken) + "\n")
        with pytest.raises(wk.Mismatch):
            wl.verify(None, str(path))


def test_traced_self_times_account_for_the_op(tmp_path):
    wl = SmallDirect(5, str(tmp_path), {})
    wl.build()
    req = next(wl.requests())
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        tracer.active = True
        root = tracer.open("bench", "op")
        traced = wl.run(req)
        tracer.close(root)
    finally:
        tracer.active = False
        tracer.uninstall()
    spans = tracer.take()
    layers = {s[2] for s in spans}
    assert {"engine3d", "scheduler", "geometry", "quadrature"} <= layers
    total = spans[root][5] - spans[root][4]
    assert sum(self_times(spans).values()) == pytest.approx(total, rel=1e-9)
    assert np.array_equal(traced.values, wl.run(req).values)
