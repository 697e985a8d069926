"""Exact vs approximate geometric triangle weights.

Walks the sparse triangular multipole domain, compares the closed-form
approximation against the exact weight (a running product of central
binomial ratios, good to a few ulp), and shows that the approximation
error is set by the triangle slack (distance from the flattened boundary
l3 = l1 + l2), not by the multipole magnitudes.
"""

import numpy as np

import cmbproj as cp


def main():
    l_max = 64
    domain = cp.enumerate_domain(2, l_max)
    print(f"domain l in [2, {l_max}]: {domain.count} ordered triples")

    exact = cp.h2_exact(domain.l1, domain.l2, domain.l3)
    approx = cp.h2_gosper(domain.l1, domain.l2, domain.l3)
    rel = np.abs(approx / exact - 1.0)

    L = domain.l1 + domain.l2 + domain.l3
    slack = np.minimum(np.minimum(L - 2 * domain.l1, L - 2 * domain.l2),
                       L - 2 * domain.l3)

    print("\napproximation error binned by triangle slack min_i(L - 2 l_i):")
    print(f"{'slack':>10} {'triples':>8} {'worst rel err':>14}")
    for lo, hi in [(0, 0), (2, 8), (10, 18), (20, 38), (40, 126)]:
        mask = (slack >= lo) & (slack <= hi)
        if mask.any():
            print(f"{f'{lo}-{hi}':>10} {int(mask.sum()):>8} "
                  f"{float(rel[mask].max()):>14.2e}")

    print("\nequilateral (l, l, l) error decreases monotonically:")
    for l in (2, 4, 8, 16, 32, 64):
        e = cp.h2_gosper(l, l, l) / cp.h2_exact(l, l, l) - 1
        print(f"  l={l:>3}  rel err = {e:+.3e}")

    print("\nflattened (l, l, 2l) error stays put at any scale:")
    for l in (2, 8, 32):
        e = cp.h2_gosper(l, l, 2 * l) / cp.h2_exact(l, l, 2 * l) - 1
        print(f"  l={l:>3}  rel err = {e:+.3e}")


if __name__ == "__main__":
    main()
