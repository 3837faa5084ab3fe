"""Unit tests for the sweep execution backends.

Every backend must produce the serial records — same order, same values
(wall-clock timing fields aside) — and the pool's row accounting must fail
loudly on duplicates or out-of-range rows instead of silently corrupting a
sweep.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.experiments import backends
from repro.experiments.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SerialBackend,
    SharedMemoryBackend,
    _claim_index,
    iter_instances,
    resolve_backend,
    runs_per_tree,
)
from repro.experiments.config import SweepConfig
from repro.experiments.plan import SweepPlan
from repro.experiments.records import RecordTable, records_equal
from repro.experiments.runner import run_sweep
from repro.resilience.recovery import drain_pool
from repro.workloads import SyntheticTreeConfig, synthetic_trees

TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})


def strip_timings(records):
    return [{k: v for k, v in r.items() if k not in TIMING_FIELDS} for r in records]


@pytest.fixture(scope="module")
def trees():
    return synthetic_trees(4, SyntheticTreeConfig(num_nodes=70), rng=17)


@pytest.fixture(scope="module")
def config():
    return SweepConfig(
        schedulers=("Activation", "MemBooking"),
        memory_factors=(1.0, 2.0),
        processors=(2, 8),
    )


@pytest.fixture(scope="module")
def serial_records(trees, config):
    return SerialBackend().run(trees, config)


class TestBackendParity:
    def test_shared_memory_matches_serial(self, trees, config, serial_records):
        records = SharedMemoryBackend(jobs=2).run(trees, config)
        assert strip_timings(records) == strip_timings(serial_records)

    def test_shared_memory_single_tree_fans_out(self, trees, config):
        """Instance granularity: one tree still spreads over several workers."""
        serial = SerialBackend().run(trees[:1], config)
        parallel = SharedMemoryBackend(jobs=3).run(trees[:1], config)
        assert strip_timings(parallel) == strip_timings(serial)

    def test_shared_memory_empty_dataset(self, config):
        assert SharedMemoryBackend(jobs=2).run([], config) == []

    def test_run_sweep_backend_keyword(self, trees, config, serial_records):
        for backend in ("auto", "serial", "shared-memory", "batched"):
            records = run_sweep(trees, config, jobs=2, backend=backend)
            assert strip_timings(records) == strip_timings(serial_records), backend

    def test_run_sweep_backend_instance(self, trees, config, serial_records):
        records = run_sweep(trees, config, backend=SharedMemoryBackend(jobs=2))
        assert strip_timings(records) == strip_timings(serial_records)

    def test_config_backend_field(self, trees, config, serial_records):
        shm_config = config.with_overrides(backend="shared-memory", jobs=2)
        records = run_sweep(trees, shm_config)
        assert strip_timings(records) == strip_timings(serial_records)


class TestInstanceEnumeration:
    def test_canonical_order_matches_records(self, trees, config, serial_records):
        expected = [
            (tree_index, scheduler, p, factor)
            for tree_index, scheduler, p, factor in iter_instances(config, len(trees))
        ]
        actual = [
            (r["tree_index"], r["scheduler"], r["num_processors"], r["memory_factor"])
            for r in serial_records
        ]
        assert actual == expected

    def test_runs_per_tree(self, config):
        assert runs_per_tree(config) == 2 * 2 * 2
        assert len(list(iter_instances(config, 3))) == 3 * runs_per_tree(config)


class TestRowAccounting:
    def test_claims_each_row_once(self):
        seen = np.zeros(3, dtype=bool)
        _claim_index(seen, 2, 3)
        assert seen.tolist() == [False, False, True]
        with pytest.raises(ValueError, match="duplicate"):
            _claim_index(seen, 2, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            _claim_index(np.zeros(1, dtype=bool), 5, 1)

    def test_restores_order(self, serial_records):
        """Rows written in completion order read back in plan order."""
        total = len(serial_records)
        shm, table = RecordTable.create_shared(total)
        try:
            for row in [*range(1, total, 2), *range(total - 2, -1, -2)]:
                table.set_row(row, serial_records.row(row))
            assert table.copy() == serial_records
        finally:
            table.close()
            shm.close()
            shm.unlink()

    def test_preserves_failure_and_nonfinite_values(self, serial_records):
        """A failed row survives the worker write and the parent's reason fix-up."""
        failed = dict(
            serial_records.row(0),
            completed=False,
            makespan=math.inf,
            normalized_makespan=math.nan,
            failure_reason=None,
        )
        shm, table = RecordTable.create_shared(1)
        try:
            table.set_row(0, failed)
            table.set_value(0, "failure_reason", "deadlock at t=3: 7 tasks remain")
            row = table.copy()[0]
        finally:
            table.close()
            shm.close()
            shm.unlink()
        assert row["completed"] is False
        assert row["makespan"] == math.inf
        assert math.isnan(row["normalized_makespan"])
        assert row["failure_reason"] == "deadlock at t=3: 7 tasks remain"

    def test_rejects_gaps(self, trees, config, monkeypatch):
        """A row that neither completed nor was quarantined fails the sweep."""
        monkeypatch.setattr(backends, "drain_pool", lambda *args: [])
        with pytest.raises(ValueError, match="incomplete"):
            SharedMemoryBackend(jobs=2).run(trees, config)


def _spy_on_pool(monkeypatch, payloads, outcomes):
    """Record every task payload the pool dispatches and every outcome it returns."""
    real = drain_pool

    def spy(make_pool, worker, payload_for, items, settings, handle):
        def recording_payload(item, attempt):
            payloads.append(payload_for(item, attempt))
            return payloads[-1]

        def recording_handle(outcome):
            outcomes.append(outcome)
            return handle(outcome)

        return real(make_pool, worker, recording_payload, items, settings, recording_handle)

    monkeypatch.setattr(backends, "drain_pool", spy)


class TestPoolTraffic:
    def test_payloads_are_index_tuples_independent_of_tree_size(self, config, monkeypatch):
        sent = {}
        for num_nodes in (30, 600):
            payloads = sent[num_nodes] = []
            _spy_on_pool(monkeypatch, payloads, [])
            trees = synthetic_trees(2, SyntheticTreeConfig(num_nodes=num_nodes), rng=5)
            SharedMemoryBackend(jobs=2).run(trees, config)
        assert len(sent[30]) == 2 * runs_per_tree(config)
        assert sorted(sent[30]) == sorted(sent[600])
        assert max(len(pickle.dumps(p)) for p in sent[600]) < 200

    def test_results_ship_row_indices(self, trees, config, monkeypatch):
        """Completed rows return a bare index; failed rows add their reason."""
        # perfPO at factor 1.0 deadlocks on most of these trees.
        config = config.with_overrides(activation_order="perfPO", execution_order="perfPO")
        outcomes = []
        _spy_on_pool(monkeypatch, [], outcomes)
        records = SharedMemoryBackend(jobs=2).run(trees, config)
        shipped = {}
        for outcome in outcomes:
            row, reason = outcome if isinstance(outcome, tuple) else (outcome, None)
            assert isinstance(row, int)
            shipped[row] = reason
        serial = SerialBackend().run(trees, config)
        assert shipped == dict(enumerate(serial.column("failure_reason")))
        assert None in shipped.values() and any(shipped.values())
        assert records_equal(records.to_dicts(), serial.to_dicts(), ignore=TIMING_FIELDS)

    def test_single_worker_runs_in_process(self, trees, config, serial_records, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a single worker must not start a pool")

        monkeypatch.setattr(backends, "drain_pool", no_pool)
        records = SharedMemoryBackend(jobs=1).run(trees, config)
        assert strip_timings(records) == strip_timings(serial_records)
        one = SweepConfig(schedulers=("MemBooking",), memory_factors=(2.0,), processors=(2,))
        records = SharedMemoryBackend(jobs=4).run(trees[:1], one)
        assert strip_timings(records) == strip_timings(SerialBackend().run(trees[:1], one))


class TestResolution:
    def test_auto_serial_for_one_worker(self, config):
        backend = resolve_backend("auto", config, num_trees=5, jobs=1)
        assert isinstance(backend, SerialBackend)

    def test_auto_shared_memory_for_many_workers(self, config):
        backend = resolve_backend("auto", config, num_trees=5, jobs=4)
        assert isinstance(backend, SharedMemoryBackend)
        assert backend.jobs == 4

    def test_auto_fans_one_tree_out(self, config):
        """The pool splits one tree's instances, so one tree is no cap."""
        assert isinstance(resolve_backend("auto", config, 1, jobs=2), SharedMemoryBackend)

    def test_auto_serial_for_one_instance(self):
        """A grid of one instance caps the workers at one, whatever ``jobs``."""
        one = SweepConfig(schedulers=("MemBooking",), memory_factors=(2.0,), processors=(2,))
        assert isinstance(resolve_backend("auto", one, 1, jobs=4), SerialBackend)

    def test_none_defers_to_config(self, config):
        backend = resolve_backend(None, config.with_overrides(backend="shared-memory", jobs=2), 5)
        assert isinstance(backend, SharedMemoryBackend)

    def test_instance_passthrough(self, config):
        backend = SharedMemoryBackend(jobs=2)
        assert resolve_backend(backend, config, 5) is backend
        # No explicit jobs, or a matching one, keeps the caller's instance.
        assert resolve_backend(backend, config, 5, jobs=2) is backend

    def test_explicit_jobs_overrides_instance(self, config):
        """run_sweep's 'jobs wins' contract also applies to instance specs."""
        backend = SharedMemoryBackend(jobs=0)  # one worker per CPU
        resolved = resolve_backend(backend, config, 5, jobs=1)
        assert isinstance(resolved, SharedMemoryBackend)
        assert resolved is not backend
        assert resolved.jobs == 1
        assert backend.jobs == 0  # the caller's object is untouched

    def test_custom_backend_instance(self, trees, config, serial_records):
        """Any ExecutionBackend instance is accepted as is: names are not the only way in."""

        class CountingBackend(ExecutionBackend):
            name = "counting"

            def __init__(self):
                self.plans = []

            def run_plan(self, trees, plan):
                self.plans.append(len(plan))
                return SerialBackend().run_plan(trees, plan)

        backend = CountingBackend()
        assert resolve_backend(backend, config, len(trees)) is backend
        records = run_sweep(trees, config, backend=backend)
        assert backend.plans == [len(serial_records)]
        assert strip_timings(records) == strip_timings(serial_records)

    def test_unknown_name_rejected(self, config):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("teleport", config, 5)

    def test_process_pool_name_is_gone(self, config):
        assert BACKEND_NAMES == ("auto", "batched", "serial", "shared-memory")
        with pytest.raises(ValueError, match="unknown backend 'process'"):
            SweepConfig(backend="process")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("process", config, 5, jobs=2)

    def test_negative_jobs_rejected_on_every_path(self, trees, config):
        """Pre-backend run_sweep raised for jobs<0 even in-process; keep that."""
        for backend in ("auto", "serial", "shared-memory"):
            with pytest.raises(ValueError, match="jobs must be >= 0"):
                run_sweep(trees, config, jobs=-3, backend=backend)
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            run_sweep(trees, config, jobs=-3, backend=SharedMemoryBackend(jobs=2))
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            SharedMemoryBackend(jobs=-1)

    def test_config_validates_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SweepConfig(backend="teleport")
        for name in BACKEND_NAMES:
            assert SweepConfig(backend=name).backend == name


class TestWorkerContextCache:
    def test_cache_is_bounded_and_correct(self, config):
        """A worker's context cache must not grow past the LRU bound."""
        from repro.batch.planes import workspace_planes
        from repro.core import TreeStore
        from repro.experiments import backends

        trees = synthetic_trees(
            backends._SHM_CONTEXT_CACHE_SIZE + 4, SyntheticTreeConfig(num_nodes=30), rng=23
        )
        total = len(trees) * runs_per_tree(config)
        shm = TreeStore.pack_to_shared_memory(trees, planes=workspace_planes(trees, config))
        result_shm, result_table = RecordTable.create_shared(total)
        saved = dict(backends._SHM_WORKER)
        try:
            backends._shm_worker_init(shm.name, result_shm.name, config)
            plan = SweepPlan.from_config(config, len(trees))
            indices = [
                backends._shm_run_instance((row, *instance, 0))
                for row, instance in enumerate(plan.instances())
            ]
            assert len(backends._SHM_WORKER["contexts"]) <= backends._SHM_CONTEXT_CACHE_SIZE
            assert sorted(indices) == list(range(total))
            serial = SerialBackend().run(trees, config)
            # The worker wrote every record straight into the shared table.
            assert strip_timings(result_table) == strip_timings(serial)
        finally:
            backends._SHM_WORKER["contexts"].clear()
            backends._SHM_WORKER["store"].close()
            backends._SHM_WORKER["results"].close()
            backends._SHM_WORKER.clear()
            backends._SHM_WORKER.update(saved)
            result_table.close()
            result_shm.close()
            result_shm.unlink()
            shm.close()
            shm.unlink()


class TestResultPlane:
    def test_run_sweep_returns_record_table(self, trees, config):
        table = run_sweep(trees, config)
        assert isinstance(table, RecordTable)
        assert len(table) == len(trees) * runs_per_tree(config)


class TestJobsOverrideOnInstances:
    def test_jobsless_instance_with_explicit_jobs_warns(self, trees, config):
        """A jobs= override a SerialBackend cannot honour must not vanish."""
        with pytest.warns(RuntimeWarning, match="jobs=4"):
            resolve_backend(SerialBackend(), config, len(trees), jobs=4)

    def test_jobsless_instance_accepts_single_worker(self, config, recwarn):
        """jobs=1 matches what a jobs-less backend runs: no warning."""
        backend = SerialBackend()
        assert resolve_backend(backend, config, 5, jobs=1) is backend
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_warned_sweep_still_runs_serially(self, trees, config, serial_records):
        with pytest.warns(RuntimeWarning):
            records = run_sweep(trees, config, jobs=3, backend=SerialBackend())
        assert strip_timings(records) == strip_timings(serial_records)
