"""The ``batched`` execution backend and backend name resolution."""

from __future__ import annotations

import pickle

import pytest

from repro.batch import BatchedBackend
from repro.experiments import SweepConfig, run_sweep
from repro.experiments.backends import BACKEND_NAMES, SerialBackend, resolve_backend
from repro.schedulers import SCHEDULER_FACTORIES
from repro.schedulers.reference import REFERENCE_FACTORIES
from repro.workloads.synthetic import SyntheticTreeConfig, synthetic_trees

TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})


def record_bytes(records):
    return [
        pickle.dumps({k: v for k, v in r.items() if k not in TIMING_FIELDS})
        for r in records
    ]


@pytest.fixture
def trees():
    return synthetic_trees(3, SyntheticTreeConfig(num_nodes=90), rng=5)


@pytest.fixture
def config():
    return SweepConfig(
        memory_factors=(1.0, 1.5, 4.0),
        processors=(2, 8),
        min_completion_fraction=0.0,
    )


class TestResolution:
    def test_builtin_names(self):
        assert BACKEND_NAMES == ("auto", "batched", "serial", "shared-memory")

    def test_unknown_backend_lists_names(self, config):
        with pytest.raises(ValueError, match="batched"):
            resolve_backend("teleport", config, 3)

    def test_batched_resolves_by_name(self, config):
        assert isinstance(resolve_backend("batched", config, 3), BatchedBackend)

    def test_jobsless_batched_instance_with_explicit_jobs_warns(self, config):
        """A jobs override an in-process backend cannot honour warns."""
        with pytest.warns(RuntimeWarning, match="jobs=4"):
            resolve_backend(BatchedBackend(), config, 3, jobs=4)

    def test_batched_instance_accepts_single_worker(self, config, recwarn):
        backend = BatchedBackend()
        assert resolve_backend(backend, config, 3, jobs=1) is backend
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


class TestBatchedBackend:
    def test_config_spelling_matches_serial(self, trees, config):
        serial = run_sweep(trees, config, backend=SerialBackend())
        batched = run_sweep(trees, config.with_overrides(backend="batched"))
        assert record_bytes(batched) == record_bytes(serial)

    def test_empty_sweep(self, config):
        assert len(BatchedBackend().run([], config)) == 0

    def test_patched_scheduler_registry_falls_back_to_scalar(
        self, trees, config, monkeypatch
    ):
        """A factory registry pointing elsewhere must bypass the lane kernels.

        The engine-speed benchmarks monkeypatch the reference schedulers into
        ``SCHEDULER_FACTORIES``; the batched backend must then produce what
        those factories produce, not what its (now stale) kernels would.
        """
        for name, factory in REFERENCE_FACTORIES.items():
            monkeypatch.setitem(SCHEDULER_FACTORIES, name, factory)
        serial = run_sweep(trees, config, backend=SerialBackend())
        batched = run_sweep(trees, config, backend=BatchedBackend())
        assert record_bytes(batched) == record_bytes(serial)

    def test_execution_knobs_excluded_from_result_cache_key(self, config, tmp_path):
        from repro.experiments.records import ResultCache

        cache = ResultCache(tmp_path)
        dataset = ("synthetic", "tiny", 1)
        knobs = config.with_overrides(
            jobs=4, backend="batched", native=False, fault_plan="seed=1"
        )
        assert cache.key(dataset, knobs) == cache.key(dataset, config)
