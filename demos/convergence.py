"""Driver-level study: the integrator convergence table.

Runs the same study the command line exposes (mode `convergence`) at a
small desk scale and prints the plot-ready rows.  Timings of the engines
come from the benchmark: `python3 perfbench/run.py`.
"""

import cmbproj as cp


def main():
    cfg = cp.RunConfig(mode="convergence", l_min=2, l_max=16, p_max=3)
    print("convergence study (RMSE% vs dense-spline gold):")
    rows = cp.run_convergence_study(cfg, ladder=(54, 108, 216))
    print(f"{'integrator':>10} {'R':>6} {'rmse%':>12} {'seconds':>9}")
    for r in rows:
        print(f"{r['integrator']:>10} {r['r_samples']:>6} "
              f"{r['rmse_percent']:>12.3e} {r['seconds']:>9.3f}")
    print("note: the synthetic basis factorises its radial dependence, so "
          "the unit-normalised matrix RMSE sits at rounding level; the "
          "scalar-integral ladder in demos/integrators.py carries the "
          "resolution trend")


if __name__ == "__main__":
    main()
