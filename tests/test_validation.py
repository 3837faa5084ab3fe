"""Unit tests for schedule validation and memory-profile reconstruction."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.task_tree import TaskTree
from repro.schedulers.base import UNSCHEDULED, ScheduleResult
from repro.schedulers.validation import memory_profile, validate_schedule


def _make_result(tree, start, finish, processor, *, p=2, limit=100.0, completed=True):
    start = np.asarray(start, dtype=float)
    finish = np.asarray(finish, dtype=float)
    return ScheduleResult(
        scheduler="handmade",
        tree_size=tree.n,
        num_processors=p,
        memory_limit=limit,
        completed=completed,
        makespan=float(np.nanmax(finish)) if completed else math.inf,
        start_times=start,
        finish_times=finish,
        processor=np.asarray(processor, dtype=np.int64),
        peak_memory=math.nan,
        scheduling_seconds=0.0,
        num_events=tree.n,
    )


@pytest.fixture
def two_leaf_tree() -> TaskTree:
    """Root 2 with children 0 and 1."""
    return TaskTree(
        parent=[2, 2, -1],
        fout=[2.0, 3.0, 4.0],
        nexec=[1.0, 1.0, 2.0],
        ptime=[2.0, 2.0, 3.0],
    )


class TestMemoryProfile:
    def test_sequential_profile(self, two_leaf_tree):
        # 0 on [0,2), 1 on [2,4), 2 on [4,7) -- sequential on one processor.
        result = _make_result(two_leaf_tree, [0, 2, 4], [2, 4, 7], [0, 0, 0], p=1)
        profile = memory_profile(two_leaf_tree, result)
        # During 0: f0 + n0 = 3; during 1: f0 + f1 + n1 = 6;
        # during 2: f0 + f1 + f2 + n2 = 11; after 2: f2 = 4.
        assert profile.at(1.0) == pytest.approx(3.0)
        assert profile.at(3.0) == pytest.approx(6.0)
        assert profile.at(5.0) == pytest.approx(11.0)
        assert profile.peak == pytest.approx(11.0)

    def test_parallel_profile(self, two_leaf_tree):
        # Leaves in parallel on [0,2), root on [2,5).
        result = _make_result(two_leaf_tree, [0, 0, 2], [2, 2, 5], [0, 1, 0])
        profile = memory_profile(two_leaf_tree, result)
        assert profile.at(1.0) == pytest.approx((2 + 1) + (3 + 1))
        assert profile.at(3.0) == pytest.approx(2 + 3 + 2 + 4)
        assert profile.peak == pytest.approx(11.0)
        # After the root completes only its output remains.
        assert profile.at(5.0) == pytest.approx(4.0)

    def test_average_between_bounds(self, two_leaf_tree):
        result = _make_result(two_leaf_tree, [0, 0, 2], [2, 2, 5], [0, 1, 0])
        profile = memory_profile(two_leaf_tree, result)
        assert profile.memory.min() <= profile.average() <= profile.peak

    def test_partial_schedule(self, two_leaf_tree):
        # Only leaf 0 ran; its output stays resident until the horizon.
        result = _make_result(
            two_leaf_tree,
            [0, np.nan, np.nan],
            [2, np.nan, np.nan],
            [0, UNSCHEDULED, UNSCHEDULED],
            completed=False,
        )
        profile = memory_profile(two_leaf_tree, result)
        assert profile.peak == pytest.approx(3.0)
        assert profile.at(2.0) == pytest.approx(2.0)

    def test_empty_schedule(self, two_leaf_tree):
        result = _make_result(
            two_leaf_tree,
            [np.nan] * 3,
            [np.nan] * 3,
            [UNSCHEDULED] * 3,
            completed=False,
        )
        assert memory_profile(two_leaf_tree, result).peak == 0.0


class TestValidateSchedule:
    def test_valid_schedule(self, two_leaf_tree):
        result = _make_result(two_leaf_tree, [0, 0, 2], [2, 2, 5], [0, 1, 0])
        report = validate_schedule(two_leaf_tree, result)
        assert report.valid, report.errors
        report.raise_if_invalid()
        assert report.peak_memory == pytest.approx(11.0)

    def test_wrong_duration_detected(self, two_leaf_tree):
        result = _make_result(two_leaf_tree, [0, 0, 2], [1, 2, 5], [0, 1, 0])
        report = validate_schedule(two_leaf_tree, result)
        assert not report.valid
        assert any("ran for" in e for e in report.errors)

    def test_precedence_violation_detected(self, two_leaf_tree):
        # Root starts before leaf 1 finishes.
        result = _make_result(two_leaf_tree, [0, 0, 1], [2, 2, 4], [0, 1, 0])
        report = validate_schedule(two_leaf_tree, result)
        assert not report.valid
        assert any("before child" in e for e in report.errors)

    def test_processor_overload_detected(self, two_leaf_tree):
        result = _make_result(two_leaf_tree, [0, 0, 2], [2, 2, 5], [0, 1, 0], p=1)
        report = validate_schedule(two_leaf_tree, result)
        assert not report.valid
        assert any("simultaneously" in e for e in report.errors)

    def test_same_processor_overlap_detected(self, two_leaf_tree):
        result = _make_result(two_leaf_tree, [0, 0, 2], [2, 2, 5], [0, 0, 0])
        report = validate_schedule(two_leaf_tree, result)
        assert not report.valid
        assert any("overlap on processor" in e for e in report.errors)

    def test_memory_violation_detected(self, two_leaf_tree):
        result = _make_result(two_leaf_tree, [0, 0, 2], [2, 2, 5], [0, 1, 0], limit=10.0)
        report = validate_schedule(two_leaf_tree, result)
        assert not report.valid
        assert any("memory" in e for e in report.errors)

    @pytest.mark.parametrize("native", [False, None])
    def test_memory_oblivious_skips_only_the_bound(self, two_leaf_tree, native):
        """ListNoMemory's results ignore the bound: every other check runs."""
        oblivious = {"memory_oblivious": True}
        result = _make_result(two_leaf_tree, [0, 0, 2], [2, 2, 5], [0, 1, 0], limit=10.0)
        report = validate_schedule(two_leaf_tree, replace(result, extras=oblivious), native=native)
        assert report.valid, report.errors
        assert report.peak_memory == pytest.approx(11.0)
        late = _make_result(two_leaf_tree, [0, 0, 1], [2, 2, 4], [0, 1, 0], limit=10.0)
        report = validate_schedule(two_leaf_tree, replace(late, extras=oblivious), native=native)
        assert any("before child" in e for e in report.errors)
        assert not any("memory" in e for e in report.errors)

    def test_incomplete_completion_claim_detected(self, two_leaf_tree):
        result = _make_result(
            two_leaf_tree,
            [0, np.nan, np.nan],
            [2, np.nan, np.nan],
            [0, UNSCHEDULED, UNSCHEDULED],
            completed=True,
        )
        report = validate_schedule(two_leaf_tree, result)
        assert not report.valid

    def test_raise_if_invalid(self, two_leaf_tree):
        result = _make_result(two_leaf_tree, [0, 0, 2], [1, 2, 5], [0, 1, 0])
        with pytest.raises(AssertionError):
            validate_schedule(two_leaf_tree, result).raise_if_invalid()
