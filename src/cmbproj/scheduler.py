"""Static deterministic partitioning of flat iteration spaces.

Both engines sweep a single flattened index range (valid multipole triples
for the direct engine, mapping rows for the separable one).  Work is
carved into contiguous, balanced, per-worker chunks up front, so the
chunk each item falls in depends only on the worker count.  The engines
combine the per-chunk results in chunk order.
"""

from __future__ import annotations

__all__ = ["make_plan"]


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
