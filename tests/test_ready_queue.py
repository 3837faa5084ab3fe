"""Unit tests for :class:`repro.schedulers.ReadyQueue` and schedule parity.

The ReadyQueue replaced three ad-hoc ready-pool implementations (two
``IndexedHeap`` usages with hand-computed priorities and an O(n) ``min``
scan over a plain set); the frozen reference engine still pops its ready
tasks through it, while the kernels keep a plain ``(rank, node)`` heap.
The parity tests pin the contract that made the replacement safe:
MemBooking produces exactly the same schedule as
:class:`MemBookingReferenceScheduler` on random instances, and the
oracle's pop is the rank minimiser the seed's scan returned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.orders import minimum_memory_postorder, sequential_peak_memory
from repro.schedulers import ReadyQueue
from repro.schedulers.membooking import (
    MemBookingReferenceScheduler,
    MemBookingScheduler,
)
from repro.schedulers.reference import ReferenceMemBookingScheduler

from .helpers import random_tree


class TestReadyQueue:
    def test_pops_in_rank_order(self):
        rank = np.asarray([3, 0, 2, 1])
        queue = ReadyQueue(rank, items=[0, 1, 2, 3])
        assert [queue.pop() for _ in range(4)] == [1, 3, 2, 0]

    def test_pop_empty_returns_none(self):
        queue = ReadyQueue(np.arange(4))
        assert queue.pop() is None
        assert queue.peek() is None

    def test_len_bool_contains(self):
        queue = ReadyQueue(np.arange(5))
        assert not queue and len(queue) == 0
        queue.add(3)
        assert queue and len(queue) == 1 and 3 in queue and 2 not in queue

    def test_peek_does_not_remove(self):
        queue = ReadyQueue(np.asarray([1, 0]), items=[0, 1])
        assert queue.peek() == 1
        assert len(queue) == 2

    def test_remove_and_discard(self):
        queue = ReadyQueue(np.arange(6), items=[2, 4])
        queue.remove(2)
        assert 2 not in queue
        with pytest.raises(KeyError):
            queue.remove(2)
        queue.discard(2)  # no-op
        queue.discard(4)
        assert not queue

    def test_duplicate_add_rejected(self):
        queue = ReadyQueue(np.arange(3), items=[1])
        with pytest.raises(ValueError):
            queue.add(1)

    def test_interleaved_adds_and_pops(self):
        rng = np.random.default_rng(7)
        rank = rng.permutation(50)
        queue = ReadyQueue(rank)
        reference: set[int] = set()
        for node in rng.permutation(50):
            queue.add(int(node))
            reference.add(int(node))
            if len(reference) % 3 == 0:
                expected = min(reference, key=lambda i: rank[i])
                assert queue.pop() == expected
                reference.discard(expected)
        while reference:
            expected = min(reference, key=lambda i: rank[i])
            assert queue.pop() == expected
            reference.discard(expected)
        assert queue.pop() is None


class TestScheduleParity:
    """ReadyQueue-backed schedulers versus the reference implementation."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("factor", [1.0, 1.5, 3.0])
    def test_membooking_matches_reference(self, seed, factor):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 60)
        order = minimum_memory_postorder(tree)
        memory = factor * sequential_peak_memory(tree, order, check=False)
        optimized = MemBookingScheduler().schedule(tree, 4, memory, ao=order, eo=order)
        reference = MemBookingReferenceScheduler().schedule(tree, 4, memory, ao=order, eo=order)
        assert optimized.completed == reference.completed
        np.testing.assert_array_equal(optimized.start_times, reference.start_times)
        np.testing.assert_array_equal(optimized.finish_times, reference.finish_times)
        np.testing.assert_array_equal(optimized.processor, reference.processor)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_reference_pop_is_rank_minimiser(self, seed):
        """The frozen oracle's ReadyQueue pop extracts exactly what the
        seed's O(n) min scan did (the parity suites compare against it)."""
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 40)
        order = minimum_memory_postorder(tree)
        memory = 2.0 * sequential_peak_memory(tree, order, check=False)

        popped: list[int] = []

        class RecordingReference(ReferenceMemBookingScheduler):
            def _pop_ready_task(self):
                before = {n for n in range(self.tree.n) if n in self.ready_queue}
                node = super()._pop_ready_task()
                if node is not None:
                    rank = self.eo.rank
                    assert node == min(before, key=lambda i: rank[i])
                    popped.append(node)
                return node

        result = RecordingReference().schedule(tree, 4, memory, ao=order, eo=order)
        assert result.completed
        assert sorted(popped) == list(range(tree.n))
