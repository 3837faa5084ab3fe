"""Fault-parity fuzz: injected recoverable faults never change the records.

For figure-shaped sweep configurations (the fig8 order/heuristic grid with
``MemBookingRedTree`` and the fig15 processor sweep), every backend must
produce records byte-identical (wall-clock timing fields aside) to its own
fault-free run — and to the serial reference — while a seeded
:class:`~repro.resilience.faults.FaultPlan` is crashing workers, hanging
instances, raising transient OSErrors and failing the lane engine
underneath it.  This is the acceptance invariant of the fault-tolerant
execution plane: recovery reproduces exactly the bytes the lost attempt
would have produced.
"""

from __future__ import annotations

import pytest

from repro.experiments.backends import BACKEND_NAMES
from repro.experiments.config import SweepConfig
from repro.experiments.plan import SweepPlan, execute_plan
from repro.experiments.records import records_equal
from repro.experiments.runner import run_sweep
from repro.resilience import current_health, reset_fault_state, reset_run_health
from repro.workloads import SyntheticTreeConfig, synthetic_trees

TIMING_FIELDS = ("scheduling_seconds", "scheduling_seconds_per_node")

#: Every recoverable fault kind armed at once, tuned so a tiny sweep still
#: sees injections while staying fast: first-attempt-only faults (retries
#: always succeed), a short watchdog for the injected hangs, minimal backoff.
RECOVERABLE_PLAN = (
    "seed={seed};worker-crash:3;hang:5;os-transient:4;lane-engine:2;"
    "watchdog=3;hang=20;backoff=0.02"
)

#: fig8-like: the order-choice grid, including the non-batchable
#: ``MemBookingRedTree`` (exercises the scalar fallback inside the batched
#: backend alongside the lane kernels).
FIG8_LIKE = SweepConfig(
    schedulers=("Activation", "MemBooking", "MemBookingRedTree"),
    memory_factors=(1.5, 5.0),
    processors=(8,),
)

#: fig15-like: the processor sweep over the batchable heuristic pair.
FIG15_LIKE = SweepConfig(
    schedulers=("Activation", "MemBooking"),
    memory_factors=(2.0,),
    processors=(2, 8),
)


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_run_health()
    reset_fault_state()
    yield
    reset_run_health()
    reset_fault_state()


@pytest.fixture(scope="module")
def trees():
    return synthetic_trees(3, SyntheticTreeConfig(num_nodes=60), rng=8)


def _backends():
    return [name for name in BACKEND_NAMES if name != "auto"]


@pytest.mark.parametrize("config", [FIG8_LIKE, FIG15_LIKE], ids=["fig8", "fig15"])
@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("seed", [2, 9])
def test_injected_faults_preserve_records(trees, config, backend, seed):
    base = run_sweep(trees, config).to_dicts()
    armed = config.with_overrides(
        backend=backend,
        jobs=2,
        fault_plan=RECOVERABLE_PLAN.format(seed=seed),
    )
    injected = run_sweep(trees, armed).to_dicts()
    assert records_equal(base, injected, ignore=TIMING_FIELDS)
    health = current_health()
    # Recoverable plans lose nothing and quarantine nothing.
    assert health.lost_instances == 0
    assert health.quarantined_instances == 0


@pytest.mark.parametrize("backend", _backends())
def test_injected_faults_preserve_subset_records(trees, backend):
    """A subset plan (the cache-miss shape a figure runs) recovers the same bytes."""
    plan = SweepPlan.from_config(FIG8_LIKE, len(trees))
    positions = list(range(0, len(plan), 2))
    base = execute_plan(trees, plan.subset(positions))
    armed = FIG8_LIKE.with_overrides(
        backend=backend, jobs=2, fault_plan=RECOVERABLE_PLAN.format(seed=2)
    )
    injected = execute_plan(trees, SweepPlan.from_config(armed, len(trees)).subset(positions))
    assert records_equal(base.to_dicts(), injected.to_dicts(), ignore=TIMING_FIELDS)
    health = current_health()
    assert sum(health.injected.values()) > 0
    assert health.lost_instances == 0
    assert health.quarantined_instances == 0


def test_plan_injects_something_overall(trees):
    """Guard against a plan so sparse the parity fuzz tests nothing."""
    total = 0
    for seed in (2, 9):
        for backend in _backends():
            reset_run_health()
            armed = FIG8_LIKE.with_overrides(
                backend=backend, jobs=2, fault_plan=RECOVERABLE_PLAN.format(seed=seed)
            )
            run_sweep(trees, armed)
            total += sum(current_health().injected.values())
    assert total > 0
