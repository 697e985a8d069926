"""Static deterministic partitioning of flat iteration spaces.

Both engines sweep a single flattened index range (valid multipole triples
for the direct engine, mapping rows for the separable one).  Work is
carved into contiguous, balanced, per-worker chunks up front; each worker
produces a private partial result and the partials are merged once, in
ascending worker order, so a run is reproducible for a fixed worker count.
"""

from __future__ import annotations

from dataclasses import dataclass


from .gamma import GammaMatrix

__all__ = ["ChunkPlan", "make_plan", "merge_partials"]


@dataclass(frozen=True)
class ChunkPlan:
    """Contiguous disjoint half-open ranges covering [0, total)."""

    total: int
    ranges: tuple[tuple[int, int], ...]

    @property
    def worker_count(self) -> int:
        return len(self.ranges)


def make_plan(total: int, workers: int) -> ChunkPlan:
    """Balanced contiguous chunks: the first (total mod workers) workers
    get the ceiling share, the rest the floor share."""
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
    return ChunkPlan(total, tuple(ranges))


def merge_partials(partials: list[GammaMatrix]) -> GammaMatrix:
    """Entrywise sum of per-worker partial matrices, in list order.

    All partials must have identical shapes and input fingerprints; the
    fixed summation order makes the merge deterministic.
    """
    if not partials:
        raise ValueError("no partials to merge")
    first = partials[0]
    for p in partials[1:]:
        if not first.same_inputs(p):
            raise ValueError("partial matrices have mismatched shape or "
                             "input fingerprints")
    total = first.values.copy()
    for p in partials[1:]:
        total += p.values
    meta = dict(first.meta)
    meta["workers_merged"] = len(partials)
    return GammaMatrix(total, meta)
