"""Static deterministic partitioning of flat iteration spaces, and the
one place chunks are run.

Both engines sweep a flat sequence of items of unequal size (blocks of
valid multipole triples for the direct engine, (i, j) groups of mapping
rows for the separable one).  ``make_weighted_plan`` carves the items
into contiguous per-worker chunks balanced by their sizes up front, so
the chunk each item falls in depends only on the worker count and the
sizes.  ``run_chunks`` runs the chunks, in this process or in forked
workers that inherit their shared inputs, and the engines combine the
results in chunk order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

__all__ = ["make_weighted_plan", "run_chunks", "chunk_inputs"]

# the inputs of the running ``run_chunks`` call, set only while it runs;
# forked workers inherit them
_shared: dict = {}


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


def chunk_inputs() -> tuple:
    """The ``inputs`` of the ``run_chunks`` call whose chunk is running, in
    this process or in a forked worker."""
    return _shared["inputs"]


def run_chunks(get_context, entry, jobs, inputs) -> list:
    """``[entry(job) for job in jobs]``, with ``inputs`` readable through
    ``chunk_inputs()``.  One job runs in this process; more run in a pool
    of one worker per job from ``get_context("fork")``, forked after the
    inputs are set, so only the jobs and results are pickled.  The inputs
    are dropped when the call returns or raises.  Calls in one process
    must not overlap: they share the one set of inputs."""
    _shared["inputs"] = inputs
    try:
        if len(jobs) <= 1:
            return [entry(job) for job in jobs]
        with get_context("fork").Pool(len(jobs)) as pool:
            return pool.map(entry, jobs)
    finally:
        _shared.clear()
