"""Backend equivalence benchmark for the sweep engine.

``run_sweep`` and plan execution with the
:class:`~repro.experiments.backends.SharedMemoryBackend` and the
:class:`~repro.batch.BatchedBackend` must reproduce the
:class:`~repro.experiments.backends.SerialBackend` records exactly on the
fig8 (AO/EO-choice, assembly trees) and fig15 (processor sweep, synthetic
trees) configurations, for full and subset plans.  Records are compared as
pickled bytes — literally byte-identical — after dropping the wall-clock
``scheduling_seconds`` measurements, which are non-deterministic even
between two serial runs.
"""

from __future__ import annotations

import pickle

import pytest

from repro.batch import BatchedBackend
from repro.experiments import SweepConfig, run_sweep
from repro.experiments.backends import SerialBackend, SharedMemoryBackend
from repro.workloads.datasets import assembly_dataset, synthetic_dataset

TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})

#: fig8's sweep shape: MemBooking under the six AO/EO combinations.
FIG8_COMBOS = (
    ("memPO", "memPO"),
    ("memPO", "CP"),
    ("OptSeq", "CP"),
    ("OptSeq", "OptSeq"),
    ("perfPO", "CP"),
    ("perfPO", "perfPO"),
)
FIG8_FACTORS = (1.5, 2.0, 5.0, 20.0)

#: fig15's sweep shape: three heuristics, five processor counts.
FIG15_SWEEP = SweepConfig(memory_factors=(1.5, 2.0, 5.0, 10.0), processors=(2, 4, 8, 16, 32))


def record_bytes(records):
    """Pickle each record minus the wall-clock timing fields.

    Comparing serialised bytes (rather than dict equality) makes the
    byte-identity claim literal and keeps NaN-valued fields of failed
    instances comparable.
    """
    return [
        pickle.dumps({k: v for k, v in r.items() if k not in TIMING_FIELDS})
        for r in records
    ]


def test_fig8_configuration_byte_identical(bench_scale):
    trees, _ = assembly_dataset(bench_scale, seed=2017)
    for ao_name, eo_name in FIG8_COMBOS:
        config = SweepConfig(
            schedulers=("MemBooking",),
            memory_factors=FIG8_FACTORS,
            activation_order=ao_name,
            execution_order=eo_name,
        )
        serial = record_bytes(run_sweep(trees, config, backend=SerialBackend()))
        shared = record_bytes(run_sweep(trees, config, backend=SharedMemoryBackend(jobs=2)))
        assert shared == serial, (
            f"shared-memory records diverged from serial on fig8 {ao_name}/{eo_name}"
        )
        batched = record_bytes(run_sweep(trees, config, backend=BatchedBackend()))
        assert batched == serial, (
            f"batched records diverged from serial on fig8 {ao_name}/{eo_name}"
        )


def test_fig15_configuration_byte_identical(bench_scale):
    trees, _ = synthetic_dataset(bench_scale, seed=7011)
    serial = record_bytes(run_sweep(trees, FIG15_SWEEP, backend=SerialBackend()))
    shared = record_bytes(run_sweep(trees, FIG15_SWEEP, backend=SharedMemoryBackend(jobs=2)))
    assert shared == serial, (
        "shared-memory records diverged from serial on the fig15 configuration"
    )
    batched = record_bytes(run_sweep(trees, FIG15_SWEEP, backend=BatchedBackend()))
    assert batched == serial, (
        "batched records diverged from serial on the fig15 configuration"
    )


@pytest.mark.parametrize("jobs", [2])
def test_shared_memory_backend_through_figure_api(bench_scale, jobs):
    """The --backend plumbing end to end: figure sweep via shared memory."""
    from repro.experiments import run_figure

    serial = run_figure("fig12", scale=bench_scale, backend="serial")
    shared = run_figure("fig12", scale=bench_scale, jobs=jobs, backend="shared-memory")
    assert record_bytes(shared.records) == record_bytes(serial.records)
    assert shared.series == serial.series


def test_fig8_plans_byte_identical_across_backends(bench_scale):
    """Full and subset SweepPlans reproduce serial bytes on every backend."""
    from repro.experiments import SweepPlan, execute_plan

    trees, _ = assembly_dataset(bench_scale, seed=2017)
    for ao_name, eo_name in FIG8_COMBOS[:2]:
        config = SweepConfig(
            schedulers=("MemBooking",),
            memory_factors=FIG8_FACTORS,
            activation_order=ao_name,
            execution_order=eo_name,
        )
        plan = SweepPlan.from_config(config, len(trees))
        serial = record_bytes(execute_plan(trees, plan, backend=SerialBackend()))
        for backend in (SharedMemoryBackend(jobs=2), BatchedBackend()):
            got = record_bytes(execute_plan(trees, plan, backend=backend))
            assert got == serial, (
                f"{backend.name} plan records diverged from serial on "
                f"fig8 {ao_name}/{eo_name}"
            )
        # A subset plan (every other row) must match the same rows of the
        # full run, again on every backend.
        positions = list(range(0, len(plan), 2))
        subset = plan.subset(positions)
        expected = [serial[p] for p in positions]
        for backend in (SerialBackend(), SharedMemoryBackend(jobs=2), BatchedBackend()):
            got = record_bytes(execute_plan(trees, subset, backend=backend))
            assert got == expected, (
                f"{backend.name} subset-plan records diverged on "
                f"fig8 {ao_name}/{eo_name}"
            )


def test_fig15_plans_byte_identical_across_backends(bench_scale):
    """The fig15 processor sweep through the plan API, on every backend."""
    from repro.experiments import SweepPlan, execute_plan

    trees, _ = synthetic_dataset(bench_scale, seed=7011)
    plan = SweepPlan.from_config(FIG15_SWEEP, len(trees))
    serial = record_bytes(execute_plan(trees, plan, backend=SerialBackend()))
    legacy = record_bytes(run_sweep(trees, FIG15_SWEEP, backend=SerialBackend()))
    assert serial == legacy, "plan execution diverged from run_sweep on fig15"
    for backend in (SharedMemoryBackend(jobs=2), BatchedBackend()):
        got = record_bytes(execute_plan(trees, plan, backend=backend))
        assert got == serial, (
            f"{backend.name} plan records diverged from serial on fig15"
        )
