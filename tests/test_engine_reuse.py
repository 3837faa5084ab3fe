"""Reusing one scheduler object must be indistinguishable from a fresh one.

Each run's state lives in a kernel built for that call and dropped when it
returns, so a scheduler object holds no per-run state: calling ``schedule``
repeatedly on the same object — as the CLI, the ablations and user code do —
must produce identical :class:`~repro.schedulers.base.ScheduleResult`\\ s
every time, and must not keep the previously scheduled tree alive.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.orders import Ordering, minimum_memory_postorder, sequential_peak_memory
from repro.schedulers import SCHEDULER_FACTORIES, SimWorkspace
from repro.schedulers.base import SchedulingError

from .helpers import random_tree

ENGINE_SCHEDULERS = sorted(SCHEDULER_FACTORIES)


def _schedule(scheduler, tree, factor=1.5):
    order = minimum_memory_postorder(tree)
    minimum = sequential_peak_memory(tree, order, check=False)
    return scheduler.schedule(tree, 4, factor * minimum, ao=order, eo=order)


def _assert_identical(first, second):
    assert second.completed == first.completed
    assert second.makespan == first.makespan
    assert second.peak_memory == first.peak_memory
    assert second.num_events == first.num_events
    assert second.failure_reason == first.failure_reason
    np.testing.assert_array_equal(second.start_times, first.start_times)
    np.testing.assert_array_equal(second.finish_times, first.finish_times)
    np.testing.assert_array_equal(second.processor, first.processor)


class TestSchedulerReuse:
    @pytest.mark.parametrize("name", ENGINE_SCHEDULERS)
    def test_two_runs_identical(self, name, rng):
        tree = random_tree(rng, 60)
        scheduler = SCHEDULER_FACTORIES[name]()
        first = _schedule(scheduler, tree)
        second = _schedule(scheduler, tree)
        _assert_identical(first, second)

    @pytest.mark.parametrize("name", ENGINE_SCHEDULERS)
    def test_interleaved_trees_identical_to_fresh(self, name, rng):
        """A run on tree B between two runs on tree A must not leak state."""
        tree_a = random_tree(rng, 50)
        tree_b = random_tree(rng, 70)
        reused = SCHEDULER_FACTORIES[name]()
        first = _schedule(reused, tree_a)
        _schedule(reused, tree_b)
        again = _schedule(reused, tree_a)
        fresh = _schedule(SCHEDULER_FACTORIES[name](), tree_a)
        _assert_identical(first, again)
        _assert_identical(fresh, again)

    def test_engine_state_cleared_after_run(self, rng):
        """A run leaves nothing on the scheduler object."""
        tree = random_tree(rng, 40)
        for name in ENGINE_SCHEDULERS:
            scheduler = SCHEDULER_FACTORIES[name]()
            _schedule(scheduler, tree)
            assert vars(scheduler) == {}, name

    def test_engine_state_cleared_when_hook_raises(self, rng):
        """A kernel that raises leaves nothing on the scheduler either."""
        from repro.schedulers.activation import ActivationKernel, ActivationScheduler

        class ExplodingKernel(ActivationKernel):
            def bind(self):
                activate, on_started, on_finished = super().bind()

                def exploding(nodes):
                    raise RuntimeError("boom")

                return activate, on_started, exploding

        class ExplodingScheduler(ActivationScheduler):
            kernel = ExplodingKernel

        tree = random_tree(rng, 20)
        ref = weakref.ref(tree)
        scheduler = ExplodingScheduler()
        scheduler.native = True  # a kernel subclass runs in Python regardless
        with pytest.raises(RuntimeError, match="boom"):
            _schedule(scheduler, tree)
        assert vars(scheduler) == {"native": True}
        del tree
        gc.collect()
        assert ref() is None, "a failed run must not pin the tree"

    def test_scheduler_does_not_keep_tree_alive(self, rng):
        """The weak-keyed sweep memo relies on trees becoming collectable."""
        tree = random_tree(rng, 40)
        ref = weakref.ref(tree)
        scheduler = SCHEDULER_FACTORIES["MemBooking"]()
        _schedule(scheduler, tree)
        del tree
        gc.collect()
        assert ref() is None, "a finished scheduler must not pin the tree"


class TestActivationOrderCheckOnce:
    """A workspace remembers that its AO passed the topological check, so
    repeated runs on one instance check it once — and never skip it for a
    workspace that did not see it pass."""

    @staticmethod
    def _bad_order(tree):
        # The reverse of a postorder puts every parent before its children.
        order = minimum_memory_postorder(tree)
        return Ordering(order.sequence[::-1], name="reversed")

    @pytest.mark.parametrize("name", ENGINE_SCHEDULERS)
    def test_non_topological_ao_raises_without_workspace(self, name, rng):
        tree = random_tree(rng, 20)
        bad = self._bad_order(tree)
        with pytest.raises(SchedulingError, match="topological"):
            SCHEDULER_FACTORIES[name]().schedule(tree, 2, 1e9, ao=bad, eo=bad)

    @pytest.mark.parametrize("name", ENGINE_SCHEDULERS)
    def test_non_topological_ao_raises_with_another_orders_workspace(self, name, rng):
        tree = random_tree(rng, 20)
        good = minimum_memory_postorder(tree)
        workspace = SimWorkspace(tree, good, good)
        SCHEDULER_FACTORIES[name]().schedule(
            tree, 2, 1e9, ao=good, eo=good, workspace=workspace
        )
        assert workspace.ao_topological
        bad = self._bad_order(tree)
        with pytest.raises(SchedulingError, match="topological"):
            SCHEDULER_FACTORIES[name]().schedule(
                tree, 2, 1e9, ao=bad, eo=bad, workspace=workspace
            )

    @pytest.mark.parametrize("name", ENGINE_SCHEDULERS)
    def test_non_topological_ao_raises_with_its_own_workspace(self, name, rng):
        """A workspace built from the bad AO itself: every call checks,
        because no check ever passed."""
        tree = random_tree(rng, 20)
        bad = self._bad_order(tree)
        workspace = SimWorkspace(tree, bad, bad)
        for _ in range(2):
            with pytest.raises(SchedulingError, match="topological"):
                SCHEDULER_FACTORIES[name]().schedule(
                    tree, 2, 1e9, ao=bad, eo=bad, workspace=workspace
                )
            assert not workspace.ao_topological

    def test_matching_workspace_checks_once(self, monkeypatch, rng):
        tree = random_tree(rng, 30)
        order = minimum_memory_postorder(tree)
        workspace = SimWorkspace(tree, order, order)
        calls = []
        is_topological = Ordering.is_topological

        def counting(self, tree):
            calls.append(self)
            return is_topological(self, tree)

        monkeypatch.setattr(Ordering, "is_topological", counting)
        for p in (2, 4, 8):
            SCHEDULER_FACTORIES["Activation"]().schedule(
                tree, p, 1e9, ao=order, eo=order, workspace=workspace
            )
        assert calls == [order]
        # Without the workspace every call checks.
        SCHEDULER_FACTORIES["Activation"]().schedule(tree, 2, 1e9, ao=order, eo=order)
        assert calls == [order, order]
