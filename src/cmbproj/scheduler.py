"""Static deterministic partitioning of flat iteration spaces.

Both engines sweep a single flattened index range (valid multipole triples
for the direct engine, (i, j) groups of mapping rows for the separable
one).  Work is carved into contiguous, balanced, per-worker chunks up
front, so the chunk each item falls in depends only on the worker count
(and, for items of unequal size, on their sizes).  The engines combine
the per-chunk results in chunk order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

__all__ = ["make_plan", "make_weighted_plan"]


def make_plan(total: int, workers: int) -> tuple[tuple[int, int], ...]:
    """Contiguous disjoint half-open ranges covering [0, total), one per
    worker: the first (total mod workers) get the ceiling share, the rest
    the floor share."""
    if total < 0 or workers < 1:
        raise ValueError("require total >= 0 and workers >= 1")
    base, extra = divmod(total, workers)
    ranges = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        ranges.append((start, start + size))
        start += size
    assert start == total
    return tuple(ranges)


def make_weighted_plan(sizes, workers: int) -> tuple[tuple[int, int], ...]:
    """Contiguous disjoint half-open ranges covering the items [0,
    len(sizes)), one per worker, balanced by the items' sizes: the w-th
    boundary is the item boundary whose cumulative size is nearest to w
    equal shares of the total (the later one on a tie)."""
    if workers < 1 or any(s < 0 for s in sizes):
        raise ValueError("require sizes >= 0 and workers >= 1")
    # cumulative sizes times workers, so that the shares are integers
    scaled = [workers * c for c in accumulate(sizes, initial=0)]
    total = scaled[-1] // workers
    bounds = [0]
    for w in range(1, workers):
        share = w * total
        g = bisect_left(scaled, share)
        if g and share - scaled[g - 1] < scaled[g] - share:
            g -= 1
        bounds.append(g)
    bounds.append(len(scaled) - 1)
    return tuple(zip(bounds[:-1], bounds[1:]))
