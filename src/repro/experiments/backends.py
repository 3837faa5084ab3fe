"""Execution backends for the sweep engine.

:func:`repro.experiments.runner.run_sweep` delegates the *execution* of a
sweep — which process simulates which (tree, processors, memory factor,
heuristic) instance — to an :class:`ExecutionBackend`.  Three are built in,
named in one literal table at the bottom of this module:

:class:`SerialBackend` (``"serial"``)
    Everything in-process, one instance after the other.  The canonical
    record order of the library; every other backend must reproduce it.
:class:`SharedMemoryBackend` (``"shared-memory"``)
    The one worker pool.  Packs the dataset, with its static workspace
    planes, into a :class:`~repro.core.tree_store.TreeStore` arena,
    publishes it once through :mod:`multiprocessing.shared_memory`, and
    dispatches at **instance** granularity: each work item is a
    ``(row, tree index, scheduler, processors, factor, attempt)`` tuple of
    a few dozen bytes, and workers materialise zero-copy tree views from
    the arena.  A dataset of a few huge trees therefore saturates every
    worker, and per-task transfer cost is independent of tree size.
:class:`repro.batch.BatchedBackend` (``"batched"``)
    In-process, with all the instances of one tree batched into one
    lane-engine call.

``"auto"`` is a resolution rule, not a backend: serial for one worker, the
shared-memory pool otherwise.

Since the plan layer (:mod:`repro.experiments.plan`), the unit a backend
executes is a :class:`~repro.experiments.plan.SweepPlan` — the instance
grid as columnar data.  :meth:`ExecutionBackend.run_plan` is the one
abstract method; the historical :meth:`ExecutionBackend.run` is a concrete
wrapper that materialises the full plan of a config first.  A *subset*
plan (the cache misses of a figure, see
:func:`~repro.experiments.plan.execute_plan_cached`) flows through exactly
the same code paths as a full sweep.

Every instance has a fixed row in the canonical enumeration
(:func:`~repro.experiments.plan.iter_instances` — trees outer, then
processors, memory factors, schedulers; re-exported here), and every
backend places its records by that row into a columnar
:class:`~repro.experiments.records.RecordTable`: the shared-memory
backend's workers write their rows straight into a preallocated
shared-memory result table and ship back only the row index.  Record
*values* are pure functions of (tree, config) — only the wall-clock
``scheduling_seconds`` measurements differ between runs — so the output is
identical whichever backend produced it.

Fault tolerance (:mod:`repro.resilience`)
-----------------------------------------
The pool dispatches through the watchdog-timed recovery drain
(:func:`~repro.resilience.recovery.drain_pool`): a crashed worker's lost
task or a hung instance shows up as a watchdog window with no progress,
the round's pool is terminated and everything still pending is
re-dispatched in a fresh pool under a bounded retry budget — instances
that never complete are quarantined into the record failure plane rather
than failing the sweep.  Because record values are pure functions of
(tree, config), recovery reproduces exactly the bytes the lost attempt
would have produced, so the table stays byte-identical to a fault-free run
whenever every instance eventually completes.  A broken transport (dead
initializer, vanished arena) degrades to in-process execution instead:
shared-memory -> serial.  Deterministic fault *injection* (the seeded
:class:`~repro.resilience.faults.FaultPlan`, armed via ``REPRO_FAULTS`` /
``SweepConfig.fault_plan``) rides the same hook points, so the recovery
machinery is exercised by reproducible faults rather than monkeypatching.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Callable, Sequence

import numpy as np

from ..core.task_tree import TaskTree
from ..core.tree_store import TreeStore
from ..resilience.faults import QUARANTINE_PREFIX, instance_fault_key, resolve_fault_plan
from ..resilience.health import current_health
from ..resilience.recovery import RetrySettings, TransportFailure, drain_pool
from .config import SweepConfig
from .plan import SweepPlan, iter_instances, runs_per_tree
from .records import RecordTable

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "SharedMemoryBackend",
    "BACKEND_NAMES",
    "resolve_backend",
    "iter_instances",
    "runs_per_tree",
]


def _claim_index(seen: np.ndarray, index: int, total: int) -> None:
    """Mark instance ``index`` as produced; out-of-range/duplicates are errors."""
    if not 0 <= index < total:
        raise ValueError(f"record index {index} outside sweep of {total} instances")
    if seen[index]:
        raise ValueError(f"duplicate record for instance {index}")
    seen[index] = True


def _worker_count(jobs: int, cap: int) -> int:
    """Resolve a ``jobs`` setting (0 = one per CPU) against a unit cap."""
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
    effective = jobs if jobs else (os.cpu_count() or 1)
    return max(1, min(effective, cap))


# --------------------------------------------------------------------------- #
# the backend interface
# --------------------------------------------------------------------------- #
class ExecutionBackend(ABC):
    """Strategy for executing every instance of a sweep plan."""

    #: Backend name (also shown in CLI help and reports).
    name: str = "backend"

    def run(
        self, trees: Sequence[TaskTree], config: SweepConfig
    ) -> RecordTable:
        """Simulate every instance of ``config`` over ``trees``.

        Materialises the full :class:`~repro.experiments.plan.SweepPlan` of
        the config and defers to :meth:`run_plan` — the historical entry
        point, kept so ``run_sweep`` and pre-plan call sites are unchanged.
        """
        tree_list = list(trees)
        return self.run_plan(tree_list, SweepPlan.from_config(config, len(tree_list)))

    @abstractmethod
    def run_plan(
        self, trees: Sequence[TaskTree], plan: SweepPlan
    ) -> RecordTable:
        """Simulate every row of ``plan`` (``trees`` is the full dataset).

        Must return a :class:`~repro.experiments.records.RecordTable` with
        one row per plan row, in plan order, equal (timing fields aside) to
        :class:`SerialBackend`'s output on the same plan.
        """


class SerialBackend(ExecutionBackend):
    """Run every instance in-process (the canonical reference order)."""

    name = "serial"

    def run_plan(self, trees: Sequence[TaskTree], plan: SweepPlan) -> RecordTable:
        from .runner import prepare_instance, resilient_run_single

        config = plan.config
        faults = resolve_fault_plan(config.fault_plan)
        table = RecordTable.empty(len(plan))
        for tree_index, rows in plan.tree_groups():
            context = prepare_instance(trees[tree_index], tree_index, config)
            for row in rows:
                scheduler, num_processors, memory_factor = plan.combo(int(row))
                table.set_row(
                    int(row),
                    resilient_run_single(
                        context, scheduler, num_processors, memory_factor, config, faults
                    ),
                )
        return table


# --------------------------------------------------------------------------- #
# shared-memory backend
# --------------------------------------------------------------------------- #
#: Worker-process state installed by the pool initializer: the attached
#: tree arena, the attached shared-memory result table (workers write their
#: rows in place), the sweep config (shipped once, not per task) and a
#: per-worker cache of InstanceContexts so repeated instances of one tree
#: share one context.
_SHM_WORKER: dict[str, Any] = {}

#: Per-worker LRU bound on cached InstanceContexts.  Instances are
#: dispatched in canonical (tree-major) order, so a worker touches one or
#: two trees at a time and a small cache almost never misses; the bound
#: keeps N workers from each holding a context for the *entire* dataset
#: over a long sweep.
_SHM_CONTEXT_CACHE_SIZE = 8


def _shm_worker_init(arena_name: str, results_name: str, config: SweepConfig) -> None:
    _SHM_WORKER["store"] = TreeStore.attach(arena_name)
    _SHM_WORKER["results"] = RecordTable.attach(results_name)
    _SHM_WORKER["config"] = config
    _SHM_WORKER["faults"] = resolve_fault_plan(config.fault_plan)
    _SHM_WORKER["contexts"] = OrderedDict()


def _shm_run_instance(
    payload: "tuple[int, int, str, int, float, int]",
) -> "int | tuple[int, str]":
    """Simulate one instance, write its row in shared memory, return its index.

    ``payload`` is ``(row, tree index, scheduler, processors, factor,
    attempt)``.  The record itself never crosses the pool pipe: the worker
    places it into its row of the shared result table (rows are disjoint,
    so no locking is needed) and the parent only receives the pickled
    ``int``.  The one exception is the dictionary-encoded
    ``failure_reason`` column: workers cannot coordinate a shared growing
    codes table, so a *failed* instance returns ``(index, reason)`` and the
    parent assigns the canonical code (failures are the rare case, so the
    typical payload stays a lone integer).
    """
    from .runner import prepare_instance, resilient_run_single

    global_index, tree_index, scheduler, num_processors, memory_factor, attempt = payload
    faults = _SHM_WORKER["faults"]
    if faults is not None:
        faults.worker_entry(
            instance_fault_key(tree_index, scheduler, num_processors, memory_factor),
            attempt,
        )
    contexts: OrderedDict[int, Any] = _SHM_WORKER["contexts"]
    context = contexts.get(tree_index)
    if context is None:
        store = _SHM_WORKER["store"]
        # The arena carries the tree's static planes (orders, children CSR,
        # request/release blocks, tree-pure scalars): adopt them zero-copy
        # instead of re-deriving them in every worker.
        context = contexts[tree_index] = prepare_instance(
            store.tree(tree_index), tree_index, _SHM_WORKER["config"], store.planes_for(tree_index)
        )
        if len(contexts) > _SHM_CONTEXT_CACHE_SIZE:
            contexts.popitem(last=False)
    else:
        contexts.move_to_end(tree_index)
    record = resilient_run_single(
        context, scheduler, num_processors, memory_factor, _SHM_WORKER["config"], faults
    )
    _SHM_WORKER["results"].set_row(global_index, record)
    reason = record["failure_reason"]
    if reason is not None:
        return global_index, reason
    return global_index


class SharedMemoryBackend(ExecutionBackend):
    """Zero-copy arena transfer plus instance-granularity scheduling.

    The dataset crosses the process boundary exactly once, as a named
    shared-memory arena; each dispatched task is a tuple of indices and
    scalars.  Because the unit of work is a single (tree, processors,
    factor, heuristic) instance, a dataset with fewer trees than workers
    still spreads across the whole pool — the regime where per-tree
    chunking degenerates to serial execution.
    """

    name = "shared-memory"

    def __init__(self, jobs: int = 0) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
        self.jobs = int(jobs)

    def run_plan(self, trees: Sequence[TaskTree], plan: SweepPlan) -> RecordTable:
        trees = list(trees)
        total = len(plan)
        if not trees or not total:
            return RecordTable.empty(total)
        jobs = _worker_count(self.jobs, total)
        if jobs <= 1:
            return SerialBackend().run_plan(trees, plan)
        try:
            return self._run_pool(trees, plan, jobs)
        except (TransportFailure, OSError):
            # The shared-memory transport is broken (lost segment, failed
            # attach, a pool that never produced a result); the instances
            # are untouched, so recompute everything in-process.
            current_health().record_degradation("shared-memory->serial")
            return SerialBackend().run_plan(trees, plan)

    def _run_pool(
        self, trees: Sequence[TaskTree], plan: SweepPlan, jobs: int
    ) -> RecordTable:
        from .runner import prepare_instance, quarantine_record

        config = plan.config
        total = len(plan)
        faults = resolve_fault_plan(config.fault_plan)
        settings = RetrySettings.from_plan(faults)
        health = current_health()
        # One instance per plan row: the row position doubles as the worker's
        # write index into the shared result table.
        instances = list(plan.instances())

        def payload_for(row: int, attempt: int) -> tuple[Any, ...]:
            tree_index, scheduler, num_processors, memory_factor = instances[row]
            if faults is not None:
                faults.preview(
                    ("worker-crash", "hang"),
                    instance_fault_key(tree_index, scheduler, num_processors, memory_factor),
                    attempt,
                )
            return (row, tree_index, scheduler, num_processors, memory_factor, attempt)

        from ..batch.planes import workspace_planes

        # The arena carries every tree's static planes, so N workers never
        # re-derive them N times; the parent derives them at most once (not
        # at all when the workload cache seeded the per-tree plane memos).
        # Serialise straight into the segment: no intermediate arena copy.
        shm = TreeStore.pack_to_shared_memory(trees, planes=workspace_planes(trees, config))
        result_shm = result_table = None
        try:
            if faults is not None:
                # A lost segment surfaces as an OSError on first attach; the
                # injection point models it before any worker spawns.
                faults.maybe_raise("shm-lost", "arena")
            # The result plane mirrors the input arena: one preallocated
            # shared-memory table, workers write disjoint rows in place and
            # ship back only the row index.
            result_shm, result_table = RecordTable.create_shared(total)
            seen = np.zeros(total, dtype=bool)
            failures: list[tuple[int, str]] = []

            def handle(outcome: "int | tuple[int, str]") -> int:
                if isinstance(outcome, tuple):
                    index, reason = outcome
                    failures.append((index, reason))
                    if faults is not None and reason.startswith(QUARANTINE_PREFIX):
                        # Worker-side quarantine: its own ledger is invisible
                        # to the parent, so account for it here.
                        health.quarantined_instances += 1
                else:
                    index = outcome
                _claim_index(seen, index, total)
                return index

            def make_pool() -> Any:
                # Unordered completion maximises load balance; rows land at
                # their canonical index regardless, so no reorder is needed.
                return multiprocessing.get_context().Pool(
                    processes=jobs,
                    initializer=_shm_worker_init,
                    initargs=(shm.name, result_shm.name, config),
                )

            leftover = drain_pool(
                make_pool,
                _shm_run_instance,
                payload_for,
                list(range(total)),
                settings,
                handle,
            )
            for row in leftover:
                # Poison instance: every dispatch attempt was lost.  Build
                # its record parent-side, quarantined into the failure plane.
                tree_index, scheduler, num_processors, memory_factor = instances[row]
                context = prepare_instance(trees[tree_index], tree_index, config)
                reason = (
                    f"{QUARANTINE_PREFIX}: dispatch lost after "
                    f"{settings.max_attempts} attempts"
                )
                record = quarantine_record(
                    context, scheduler, num_processors, memory_factor, config, reason
                )
                record["failure_reason"] = None
                result_table.set_row(row, record)
                failures.append((row, reason))
                _claim_index(seen, row, total)
                health.quarantined_instances += 1
            missing = total - int(np.count_nonzero(seen))
            if missing:
                raise ValueError(f"sweep incomplete: {missing} of {total} instances missing")
            # Workers wrote provisional (worker-local) failure codes; assign
            # the canonical ones in row order so the merged table is
            # byte-identical to the serial backend's.
            for index, reason in sorted(failures):
                result_table.set_value(index, "failure_reason", reason)
            # One arena copy detaches the records from the segment lifetime.
            merged = result_table.copy()
        finally:
            if result_table is not None:
                result_table.close()
            if result_shm is not None:
                result_shm.close()
                result_shm.unlink()
            shm.close()
            shm.unlink()
        return merged


# --------------------------------------------------------------------------- #
# resolution
# --------------------------------------------------------------------------- #
def _batched(jobs: int) -> ExecutionBackend:
    # Imported lazily: the batch subsystem sits above this module and pulls
    # in the scheduler kernels, which cold CLI paths should not pay for.
    from ..batch import BatchedBackend

    return BatchedBackend()


#: Backend name -> ``factory(jobs)``; in-process backends ignore ``jobs``.
_BACKENDS: dict[str, Callable[[int], ExecutionBackend]] = {
    "batched": _batched,
    "serial": lambda jobs: SerialBackend(),
    "shared-memory": SharedMemoryBackend,
}

#: Backend names accepted by ``SweepConfig.backend`` and the ``--backend``
#: CLI flags; ``"auto"`` resolves to serial or shared-memory by ``jobs``.
BACKEND_NAMES: tuple[str, ...] = ("auto", *sorted(_BACKENDS))


def resolve_backend(
    spec: "str | ExecutionBackend | None",
    config: SweepConfig,
    num_trees: int,
    jobs: int | None = None,
) -> ExecutionBackend:
    """Turn a backend spec (name, instance or None) into a backend object.

    ``None`` defers to ``config.backend``; ``"auto"`` is serial when the
    effective worker count — capped at the ``num_trees`` trees' instance
    grid — is one, and the shared-memory pool otherwise.  An explicit
    ``jobs`` (the ``run_sweep`` keyword) wins over ``config.jobs`` —
    including over the worker count a pre-built backend *instance* was
    configured with, in which case a shallow copy of the instance carries
    the override.  A backend instance *without* a ``jobs`` attribute (e.g.
    :class:`SerialBackend`) cannot carry a multi-worker override: passing
    ``jobs > 1`` alongside such an instance raises a :class:`RuntimeWarning`
    instead of silently dropping the request (``jobs=1`` is accepted — a
    single worker is exactly what a jobs-less backend runs).  An invalid
    ``jobs`` is rejected on every path, serial included.
    """
    if jobs is not None and int(jobs) < 0:
        raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
    if isinstance(spec, ExecutionBackend):
        if jobs is not None and not hasattr(spec, "jobs"):
            if int(jobs) != 1:
                warnings.warn(
                    f"explicit jobs={int(jobs)} override ignored: backend "
                    f"{spec.name!r} ({type(spec).__name__}) has no 'jobs' "
                    "setting and always runs a single worker",
                    RuntimeWarning,
                    stacklevel=3,
                )
        elif jobs is not None and spec.jobs != int(jobs):
            import copy

            override = copy.copy(spec)
            override.jobs = int(jobs)
            return override
        return spec
    name = spec if spec is not None else config.backend
    effective_jobs = config.jobs if jobs is None else int(jobs)
    if name == "auto":
        if _worker_count(effective_jobs, num_trees * runs_per_tree(config)) <= 1:
            return SerialBackend()
        return SharedMemoryBackend(effective_jobs)
    factory = _BACKENDS.get(name)
    if factory is None:
        raise ValueError(f"unknown backend {name!r}; available: {sorted(BACKEND_NAMES)}")
    return factory(effective_jobs)
