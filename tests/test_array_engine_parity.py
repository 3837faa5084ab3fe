"""Parity suite: the array engine reproduces the reference schedules exactly.

The array-native rewrite of the event engine and of the three dynamic
heuristics (PR 4) promises **bit-identical** schedules — event order,
tie-breaking, deadlock semantics and floating-point bookkeeping — to the
previous generation, which is preserved verbatim in
:mod:`repro.schedulers.reference`.  These tests pin that promise on both
tree families of the paper (assembly surrogate + synthetic), across memory
pressures from infeasible to abundant, processor counts from serial to wide,
and a non-trivial AO/EO split.  Every comparison is exact (``==`` on floats,
no tolerances); only the wall-clock ``scheduling_seconds`` measurements are
exempt.  Every suite runs twice: on the default plane (the C stepper when a
compiler is present) and pinned to the Python event loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.orders import make_order, minimum_memory_postorder, sequential_peak_memory
from repro.schedulers import SCHEDULER_FACTORIES, SimWorkspace
from repro.schedulers.reference import REFERENCE_FACTORIES
from repro.workloads.datasets import assembly_dataset, synthetic_dataset

HEURISTICS = sorted(REFERENCE_FACTORIES)  # Activation, MemBooking, MemBookingRedTree

MEMORY_FACTORS = (1.0, 1.2, 2.0, 10.0)
PROCESSORS = (1, 2, 8)


def _datasets():
    synthetic, _ = synthetic_dataset("tiny", seed=7011)
    assembly, _ = assembly_dataset("tiny", seed=2017)
    return [("synthetic", synthetic), ("assembly", assembly)]


def assert_identical_schedules(array_result, reference_result, label: str) -> None:
    """Exact ScheduleResult equality, timing fields aside."""
    assert array_result.scheduler == reference_result.scheduler, label
    assert array_result.completed == reference_result.completed, label
    assert array_result.failure_reason == reference_result.failure_reason, label
    assert array_result.makespan == reference_result.makespan, label
    assert array_result.num_events == reference_result.num_events, label
    assert array_result.peak_memory == reference_result.peak_memory, label
    np.testing.assert_array_equal(
        array_result.start_times, reference_result.start_times, err_msg=label
    )
    np.testing.assert_array_equal(
        array_result.finish_times, reference_result.finish_times, err_msg=label
    )
    np.testing.assert_array_equal(
        array_result.processor, reference_result.processor, err_msg=label
    )
    assert array_result.processor.dtype == reference_result.processor.dtype
    # The booked-memory diagnostics use the same ledger arithmetic too.
    assert array_result.extras.get("peak_booked_memory") == reference_result.extras.get(
        "peak_booked_memory"
    ), label


class _ArraySide:
    #: ``scheduler.native`` of the array side: ``None`` lets AUTO pick the
    #: C stepper when a compiler exists, ``False`` pins the Python loop.
    native: bool | None = None

    def _array(self, heuristic):
        scheduler = SCHEDULER_FACTORIES[heuristic]()
        scheduler.native = self.native
        return scheduler


class TestSeedScheduleParity(_ArraySide):
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_exact_parity_on_both_tree_families(self, heuristic):
        for family, trees in _datasets():
            for tree_index, tree in enumerate(trees):
                order = minimum_memory_postorder(tree)
                minimum = sequential_peak_memory(tree, order, check=False)
                for factor in MEMORY_FACTORS:
                    for p in PROCESSORS:
                        array_result = self._array(heuristic).schedule(
                            tree, p, factor * minimum, ao=order, eo=order
                        )
                        reference_result = REFERENCE_FACTORIES[heuristic]().schedule(
                            tree, p, factor * minimum, ao=order, eo=order
                        )
                        assert_identical_schedules(
                            array_result,
                            reference_result,
                            f"{heuristic} {family}[{tree_index}] factor={factor} p={p}",
                        )

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_parity_with_distinct_execution_order(self, heuristic):
        """AO != EO exercises the EO-rank ready pool against the reference."""
        trees, _ = synthetic_dataset("tiny", seed=31)
        for tree in trees[:2]:
            ao = minimum_memory_postorder(tree)
            eo = make_order(tree, "CP")
            minimum = sequential_peak_memory(tree, ao, check=False)
            for factor in (1.1, 3.0):
                array_result = self._array(heuristic).schedule(
                    tree, 4, factor * minimum, ao=ao, eo=eo
                )
                reference_result = REFERENCE_FACTORIES[heuristic]().schedule(
                    tree, 4, factor * minimum, ao=ao, eo=eo
                )
                assert_identical_schedules(
                    array_result, reference_result, f"{heuristic} AO!=EO factor={factor}"
                )

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_parity_with_shared_workspace(self, heuristic):
        """A precomputed SimWorkspace (the sweep path) changes nothing."""
        trees, _ = synthetic_dataset("tiny", seed=11)
        tree = trees[0]
        order = minimum_memory_postorder(tree)
        minimum = sequential_peak_memory(tree, order, check=False)
        workspace = SimWorkspace(tree, order, order)
        for factor in (1.0, 2.0):
            with_workspace = self._array(heuristic).schedule(
                tree, 4, factor * minimum, ao=order, eo=order, workspace=workspace
            )
            reference_result = REFERENCE_FACTORIES[heuristic]().schedule(
                tree, 4, factor * minimum, ao=order, eo=order
            )
            assert_identical_schedules(
                with_workspace, reference_result, f"{heuristic} workspace factor={factor}"
            )

    def test_stale_workspace_is_ignored_not_trusted(self):
        """A workspace for the wrong (tree, AO, EO) must not corrupt a run."""
        trees, _ = synthetic_dataset("tiny", seed=12)
        tree_a, tree_b = trees[0], trees[1]
        order_a = minimum_memory_postorder(tree_a)
        order_b = minimum_memory_postorder(tree_b)
        stale = SimWorkspace(tree_a, order_a, order_a)
        minimum = sequential_peak_memory(tree_b, order_b, check=False)
        result = self._array("MemBooking").schedule(
            tree_b, 4, 2.0 * minimum, ao=order_b, eo=order_b, workspace=stale
        )
        reference_result = REFERENCE_FACTORIES["MemBooking"]().schedule(
            tree_b, 4, 2.0 * minimum, ao=order_b, eo=order_b
        )
        assert_identical_schedules(result, reference_result, "stale workspace")


class TestFailureParity(_ArraySide):
    def test_infeasible_and_deadlock_messages_are_identical(self):
        """Failure outcomes (t=0 and mid-run deadlocks) match to the character."""
        trees, _ = synthetic_dataset("tiny", seed=7011)
        seen_failures = 0
        for tree in trees:
            order = minimum_memory_postorder(tree)
            minimum = sequential_peak_memory(tree, order, check=False)
            for factor in (1.0, 1.05, 1.2):
                array_result = self._array("MemBookingRedTree").schedule(
                    tree, 4, factor * minimum, ao=order, eo=order
                )
                reference_result = REFERENCE_FACTORIES["MemBookingRedTree"]().schedule(
                    tree, 4, factor * minimum, ao=order, eo=order
                )
                assert array_result.failure_reason == reference_result.failure_reason
                assert array_result.completed == reference_result.completed
                if not array_result.completed:
                    seen_failures += 1
        assert seen_failures, "expected at least one infeasible RedTree instance"


class TestSeedScheduleParityPython(TestSeedScheduleParity):
    """The same suite on the Python event loop, whatever the toolchain."""

    native = False


class TestFailureParityPython(TestFailureParity):
    native = False
