"""Determinism of the parallel sweep engine (``run_sweep(jobs=N)``).

The parallel sweep must be a pure performance knob: for any worker count the
records come back in exactly the serial order with exactly the serial values.
The only fields that cannot be compared are the wall-clock timing
measurements (``scheduling_seconds`` and its per-node derivative), which are
non-deterministic by nature even between two serial runs.
"""

from __future__ import annotations

import pytest

from repro.experiments.backends import (
    SerialBackend,
    SharedMemoryBackend,
    _worker_count,
    resolve_backend,
)
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_instance, run_sweep
from repro.workloads import SyntheticTreeConfig, synthetic_trees

#: Wall-clock measurements, excluded from equality comparisons.
TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})


def strip_timings(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k not in TIMING_FIELDS} for r in records]


@pytest.fixture(scope="module")
def trees():
    return synthetic_trees(6, SyntheticTreeConfig(num_nodes=80), rng=42)


@pytest.fixture(scope="module")
def config():
    return SweepConfig(
        schedulers=("Activation", "MemBooking"),
        memory_factors=(1.0, 2.0),
        processors=(2, 8),
    )


class TestParallelDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_identical_to_serial(self, trees, config, jobs):
        serial = run_sweep(trees, config, jobs=1)
        parallel = run_sweep(trees, config, jobs=jobs)
        assert strip_timings(parallel) == strip_timings(serial)

    def test_timing_fields_still_measured(self, trees, config):
        records = run_sweep(trees[:2], config, jobs=2)
        assert all(r["scheduling_seconds"] >= 0.0 for r in records)
        assert all(r["scheduling_seconds_per_node"] >= 0.0 for r in records)

    def test_record_order_is_serial_order(self, trees, config):
        records = run_sweep(trees, config, jobs=3)
        expected = [
            (index, p, factor, name)
            for index in range(len(trees))
            for p in config.processors
            for factor in config.memory_factors
            for name in config.schedulers
        ]
        actual = [
            (r["tree_index"], r["num_processors"], r["memory_factor"], r["scheduler"])
            for r in records
        ]
        assert actual == expected

    def test_config_jobs_field_used(self, trees):
        config = SweepConfig(
            schedulers=("MemBooking",), memory_factors=(1.5,), jobs=2
        )
        records = run_sweep(trees, config)
        baseline = run_sweep(trees, config.with_overrides(jobs=1))
        assert strip_timings(records) == strip_timings(baseline)

    def test_jobs_exceeding_instance_count(self, trees):
        config = SweepConfig(schedulers=("MemBooking",), memory_factors=(1.5,), processors=(2, 8))
        records = run_sweep(trees[:1], config, jobs=16)
        assert strip_timings(records) == strip_timings(run_sweep(trees[:1], config, jobs=1))


class TestRunInstance:
    def test_matches_sweep_chunk(self, trees, config):
        chunk = run_instance(trees[0], 0, config)
        sweep = run_sweep(trees[:1], config)
        assert strip_timings(chunk) == strip_timings(sweep)

    def test_context_cached_per_tree(self, trees, config):
        chunk = run_instance(trees[0], 0, config)
        minimums = {r["minimum_memory"] for r in chunk}
        assert len(minimums) == 1  # one InstanceContext for every run of the tree


class TestWorkerCount:
    def test_explicit_overrides_config(self):
        config = SweepConfig(jobs=4)
        assert isinstance(resolve_backend("auto", config, 10, jobs=1), SerialBackend)
        backend = resolve_backend(None, config, 10)
        assert isinstance(backend, SharedMemoryBackend) and backend.jobs == 4

    def test_zero_means_cpu_count(self):
        import os

        assert _worker_count(0, 1000) == (os.cpu_count() or 1)

    def test_capped_by_unit_count(self):
        assert _worker_count(8, 3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _worker_count(-1, 3)
        with pytest.raises(ValueError):
            SweepConfig(jobs=-2)
