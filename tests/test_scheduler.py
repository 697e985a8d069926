import pytest
from hypothesis import given, settings, strategies as st

import cmbproj as cp


class TestMakePlan:
    def test_even_split(self):
        assert cp.make_plan(12, 4) == ((0, 3), (3, 6), (6, 9), (9, 12))

    def test_remainder_goes_first(self):
        # 10 = 3 + 3 + 2 + 2: the first N mod W chunks get the ceiling
        assert cp.make_plan(10, 4) == ((0, 3), (3, 6), (6, 8), (8, 10))

    def test_more_workers_than_items(self):
        sizes = [b - a for a, b in cp.make_plan(2, 5)]
        assert sum(sizes) == 2
        assert all(s >= 0 for s in sizes)

    def test_single_worker(self):
        assert cp.make_plan(7, 1) == ((0, 7),)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cp.make_plan(-1, 2)
        with pytest.raises(ValueError):
            cp.make_plan(5, 0)

    @given(st.integers(0, 10**6), st.integers(1, 256))
    @settings(max_examples=200)
    def test_cover_disjoint_balanced(self, total, workers):
        ranges = cp.make_plan(total, workers)
        assert len(ranges) == workers
        # contiguous cover: each chunk starts where the previous stopped
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0 and a0 <= a1
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1
        # the larger chunks come first
        assert sizes == sorted(sizes, reverse=True)



class TestMakeWeightedPlan:
    def test_balances_by_size(self):
        assert cp.make_weighted_plan([4, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1],
                                     2) == ((0, 3), (3, 11))

    def test_tie_takes_the_later_boundary(self):
        # shares 1 | 3 and 3 | 1 are both 1 away from 2
        assert cp.make_weighted_plan([1, 2, 1], 2) == ((0, 2), (2, 3))

    def test_more_workers_than_items(self):
        assert cp.make_weighted_plan([5], 3) == ((0, 0), (0, 1), (1, 1))
        assert cp.make_weighted_plan([], 2) == ((0, 0), (0, 0))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cp.make_weighted_plan([1, -1], 2)
        with pytest.raises(ValueError):
            cp.make_weighted_plan([1, 2], 0)

    @given(st.lists(st.integers(1, 20), max_size=60), st.integers(1, 8))
    @settings(max_examples=200)
    def test_cover_disjoint_near_shares(self, sizes, workers):
        ranges = cp.make_weighted_plan(sizes, workers)
        assert len(ranges) == workers
        assert ranges[0][0] == 0 and ranges[-1][1] == len(sizes)
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0 and a0 <= a1
        # every boundary lies within half the largest item of its share
        total = sum(sizes)
        half = max(sizes, default=0) / 2
        for w, (start, _) in enumerate(ranges):
            assert abs(sum(sizes[:start]) - w * total / workers) <= half
