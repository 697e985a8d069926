import multiprocessing
import os

import pytest
from hypothesis import given, settings, strategies as st

import cmbproj as cp
from cmbproj import scheduler
from cmbproj.scheduler import chunk_inputs, run_chunks


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


def _scaled(job):
    """A chunk entry: the job times the shared factor, and the pid."""
    (factor,) = chunk_inputs()
    return job * factor, os.getpid()


def _applied(job):
    """A chunk entry that calls the shared function on its job."""
    (fn,) = chunk_inputs()
    return fn(job), os.getpid()


def _failing(job):
    raise ValueError("chunk failed")


class TestRunChunks:
    def test_results_in_job_order(self):
        results = run_chunks(multiprocessing.get_context, _scaled,
                             [5, 3, 8], (10,))
        assert [value for value, _ in results] == [50, 30, 80]

    def test_one_job_runs_in_this_process(self):
        assert run_chunks(multiprocessing.get_context, _scaled, [4],
                          (2,)) == [(8, os.getpid())]

    def test_unpicklable_input_reaches_forked_workers(self):
        results = run_chunks(multiprocessing.get_context, _applied, [1, 2],
                             (lambda x: x + 100,))
        assert [value for value, _ in results] == [101, 102]
        assert all(pid != os.getpid() for _, pid in results)

    @pytest.mark.parametrize("jobs", [[1], [1, 2]])
    def test_inputs_dropped_on_return(self, jobs):
        run_chunks(multiprocessing.get_context, _scaled, jobs, (3,))
        assert scheduler._shared == {}

    @pytest.mark.parametrize("jobs", [[1], [1, 2]])
    def test_inputs_dropped_on_raise(self, jobs):
        with pytest.raises(ValueError, match="chunk failed"):
            run_chunks(multiprocessing.get_context, _failing, jobs, (3,))
        assert scheduler._shared == {}
