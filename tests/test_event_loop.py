"""The one Python event loop (:func:`repro.schedulers.engine.simulate_kernel`).

Every event-driven scheduler drives its kernel through the same loop, which
hands ``kernel.invariant_state()`` to the invariant hook once per event
instant: at ``t = 0`` and at each distinct completion time.  The compiled
stepper cannot call back into Python, so passing a hook keeps a run on the
Python plane even when the C kernels are required.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.native as native_mod
from repro.orders import minimum_memory_postorder, sequential_peak_memory
from repro.schedulers import SCHEDULER_FACTORIES

from .helpers import random_tree
from .test_membooking import check_booking_invariants


@pytest.mark.parametrize(
    "name", ["Activation", "MemBooking", "MemBookingReference", "ListNoMemory"]
)
@pytest.mark.parametrize("factor", [1.0, 1.5, 4.0])
def test_invariant_hook_fires_once_per_event_instant(name, factor, monkeypatch):
    def no_native(*args, **kwargs):
        raise AssertionError("a run with an invariant hook must stay in Python")

    monkeypatch.setattr(native_mod, "simulate", no_native)
    rng = np.random.default_rng(int(factor * 10))
    for _ in range(3):
        tree = random_tree(rng, 50)
        order = minimum_memory_postorder(tree)
        memory = factor * sequential_peak_memory(tree, order, check=False)
        snapshots: list[dict] = []
        scheduler = SCHEDULER_FACTORIES[name]()
        scheduler.native = True
        result = scheduler.schedule(
            tree, 3, memory, ao=order, eo=order, invariant_hook=snapshots.append
        )
        assert result.completed, result.failure_reason
        # The t = 0 instant, then one instant per distinct completion time.
        assert len(snapshots) == 1 + len(np.unique(result.finish_times))
        if name.startswith("MemBooking"):
            for snapshot in snapshots:
                check_booking_invariants(snapshot)
        elif name == "Activation":
            for snapshot in snapshots:
                limit = snapshot["limit"]
                assert snapshot["booked"] <= limit + 1e-9 * max(1.0, limit)
