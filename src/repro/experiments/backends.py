"""Pluggable execution backends for the sweep engine.

:func:`repro.experiments.runner.run_sweep` delegates the *execution* of a
sweep — which process simulates which (tree, processors, memory factor,
heuristic) instance — to an :class:`ExecutionBackend`.  Backends live in a
:func:`register_backend` registry (so new strategies plug in without
touching the resolver); four are built in — the three below plus
:class:`repro.batch.BatchedBackend` (``"batched"``), which batches all the
instances of one tree into one in-process lane-engine call:

:class:`SerialBackend` (``"serial"``)
    Everything in-process, one instance after the other.  The canonical
    record order of the library; every other backend must reproduce it.
:class:`ProcessPoolBackend` (``"process"``)
    The PR-1 strategy: one :mod:`multiprocessing` task per tree, the whole
    tree pickled to the worker, every instance of that tree simulated there.
    Scales while there are more trees than workers, but ships the full node
    arrays of each tree through the pipe and cannot split one tree's
    instances across workers.
:class:`SharedMemoryBackend` (``"shared-memory"``)
    Packs the dataset into a :class:`~repro.core.tree_store.TreeStore`
    arena, publishes it once through :mod:`multiprocessing.shared_memory`,
    and dispatches at **instance** granularity: each work item is a
    ``(global index, tree index, scheduler, processors, factor)`` tuple of a
    few dozen bytes, and workers materialise zero-copy tree views from the
    arena.  A dataset of a few huge trees therefore saturates every worker,
    and per-task transfer cost is independent of tree size.

Since the plan layer (:mod:`repro.experiments.plan`), the unit a backend
executes is a :class:`~repro.experiments.plan.SweepPlan` — the instance
grid as columnar data.  :meth:`ExecutionBackend.run_plan` is the one
abstract method; the historical :meth:`ExecutionBackend.run` is a concrete
wrapper that materialises the full plan of a config first.  A *subset*
plan (the cache misses of a figure, see
:func:`~repro.experiments.plan.execute_plan_cached`) flows through exactly
the same code paths as a full sweep.

All backends funnel their results through the same deterministic
**instance-keyed merge**: every instance has a fixed row in the canonical
enumeration (:func:`~repro.experiments.plan.iter_instances` — trees outer,
then processors, memory factors, schedulers; re-exported here), and records
are placed by that row into a columnar
:class:`~repro.experiments.records.RecordTable` (:func:`merge_records` for
backends that ship dicts; the shared-memory backend's workers write their
rows straight into a preallocated shared-memory result table and ship back
only the row index).  Record *values* are pure functions of (tree, config)
— only the wall-clock ``scheduling_seconds`` measurements differ between
runs — so the merged output is identical whichever backend produced it.

Fault tolerance (:mod:`repro.resilience`)
-----------------------------------------
Both pool backends dispatch through the watchdog-timed recovery drain
(:func:`~repro.resilience.recovery.drain_pool`): a crashed worker's lost
task or a hung instance shows up as a watchdog window with no progress,
the round's pool is terminated and everything still pending is
re-dispatched in a fresh pool under a bounded retry budget — instances
that never complete are quarantined into the record failure plane rather
than failing the sweep.  Because record values are pure functions of
(tree, config), recovery reproduces exactly the bytes the lost attempt
would have produced, so the instance-keyed merge stays byte-identical to
a fault-free run whenever every instance eventually completes.  A broken
transport (dead initializer, vanished arena) degrades down the backend
ladder instead: shared-memory -> process -> serial.  Deterministic fault
*injection* (the seeded :class:`~repro.resilience.faults.FaultPlan`,
armed via ``REPRO_FAULTS`` / ``SweepConfig.fault_plan``) rides the same
hook points, so the recovery machinery is exercised by reproducible
faults rather than monkeypatching.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Callable, Iterable, Sequence

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
    "ProcessPoolBackend",
    "SharedMemoryBackend",
    "BACKEND_NAMES",
    "register_backend",
    "resolve_backend",
    "iter_instances",
    "runs_per_tree",
    "merge_records",
    "dispatch_payload_stats",
    "result_payload_stats",
]

#: Registered backend factories: ``name -> factory(jobs, config)``.  Filled
#: by :func:`register_backend`; the built-ins register at the bottom of this
#: module, so importing it always yields the full set.
_BACKEND_FACTORIES: dict[str, Any] = {}

#: Backend names accepted by ``SweepConfig.backend`` and the ``--backend``
#: CLI flags; ``"auto"`` resolves to serial or process depending on ``jobs``.
#: Rebuilt by :func:`register_backend` — read it late (or via this module)
#: rather than caching a from-import at startup.
BACKEND_NAMES: tuple[str, ...] = ("auto",)


def register_backend(
    name: str, factory: "Callable[[int, SweepConfig], ExecutionBackend]"
) -> None:
    """Register an execution backend under ``name``.

    ``factory(jobs, config)`` must return an :class:`ExecutionBackend`;
    ``jobs`` is the resolved worker-count request (which jobs-less backends
    simply ignore, like :class:`SerialBackend` always has) and ``config``
    the :class:`~repro.experiments.config.SweepConfig` being executed, so a
    backend can pick up its own knobs.  Registration makes the name valid
    everywhere a backend is spelled: ``SweepConfig.backend``,
    ``run_sweep(backend=...)`` and the ``--backend`` CLI flags.  ``"auto"``
    is reserved (it is a resolution rule, not a backend) and duplicate names
    are rejected so two plugins cannot silently shadow each other.
    """
    global BACKEND_NAMES
    if name == "auto":
        raise ValueError('"auto" is a resolution rule, not a registrable backend')
    if name in _BACKEND_FACTORIES:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKEND_FACTORIES[name] = factory
    BACKEND_NAMES = ("auto", *sorted(_BACKEND_FACTORIES))


# --------------------------------------------------------------------------- #
# the instance-keyed merge
# --------------------------------------------------------------------------- #
# The canonical enumeration itself (``iter_instances`` / ``runs_per_tree``)
# lives in :mod:`repro.experiments.plan` — the plan layer owns the grid;
# both names stay importable from here for compatibility.


def _claim_index(seen: np.ndarray, index: int, total: int) -> None:
    """Mark instance ``index`` as produced; out-of-range/duplicates are errors."""
    if not 0 <= index < total:
        raise ValueError(f"record index {index} outside sweep of {total} instances")
    if seen[index]:
        raise ValueError(f"duplicate record for instance {index}")
    seen[index] = True


def _check_coverage(total: int, seen: np.ndarray) -> None:
    """Common duplicate/gap accounting of the instance-keyed merges."""
    missing = total - int(np.count_nonzero(seen))
    if missing:
        raise ValueError(f"sweep incomplete: {missing} of {total} instances missing")


def merge_records(
    total: int, keyed: Iterable[tuple[int, dict[str, Any]]]
) -> RecordTable:
    """Place ``(global index, record)`` pairs into a canonical-order table.

    This is the merge used by every backend that ships record dicts through
    the pipe: each record is written straight into its row of a columnar
    :class:`~repro.experiments.records.RecordTable` (O(1) per row, no
    intermediate list-of-dicts), so record order cannot depend on worker
    scheduling; duplicates and gaps are hard errors rather than silent
    corruption.
    """
    table = RecordTable.empty(total)
    seen = np.zeros(total, dtype=bool)
    for index, record in keyed:
        _claim_index(seen, index, total)
        table.set_row(index, record)
    _check_coverage(total, seen)
    return table


def _worker_count(jobs: int, cap: int) -> int:
    """Resolve a ``jobs`` setting (0 = one per CPU) against a unit cap.

    The single jobs-resolution policy of the sweep engine:
    :func:`repro.experiments.runner._resolve_jobs` delegates here too, so
    ``"auto"`` resolution and the explicit backends cannot drift apart.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
    effective = jobs if jobs else (os.cpu_count() or 1)
    return max(1, min(effective, cap))


# --------------------------------------------------------------------------- #
# the backend interface
# --------------------------------------------------------------------------- #
class ExecutionBackend(ABC):
    """Strategy for executing every instance of a sweep plan."""

    #: Registry name (also shown in CLI help and reports).
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

    def dispatch_payloads(
        self, trees: Sequence[TaskTree], config: SweepConfig
    ) -> list[Any]:
        """The per-task objects this backend ships to workers.

        Used by :func:`dispatch_payload_stats` (and the transfer-cost
        benchmark) so the measured payloads are exactly the objects a
        full-plan ``run`` hands to the pool.  In-process backends ship
        nothing.
        """
        return []


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


class ProcessPoolBackend(ExecutionBackend):
    """Per-tree chunking over a process pool (the PR-1 strategy).

    Each worker task pickles a whole tree plus the config; the tree's
    :class:`~repro.experiments.runner.InstanceContext` is built once in the
    worker and reused by all its instances.
    """

    name = "process"

    def __init__(self, jobs: int = 0) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
        self.jobs = int(jobs)

    def dispatch_payloads(
        self, trees: Sequence[TaskTree], config: SweepConfig
    ) -> "list[tuple[int, TaskTree, SweepConfig, None]]":
        # ``None`` in the combos slot = the full canonical per-tree set
        # (what a full-plan run dispatches; subset plans ship explicit
        # combo lists instead).
        return [(index, tree, config, None) for index, tree in enumerate(trees)]

    def run_plan(self, trees: Sequence[TaskTree], plan: SweepPlan) -> RecordTable:
        groups = plan.tree_groups()
        jobs = _worker_count(self.jobs, len(groups))
        if jobs <= 1 or len(groups) <= 1:
            return SerialBackend().run_plan(trees, plan)
        try:
            return self._run_pool(trees, plan, groups, jobs)
        except (TransportFailure, OSError):
            # The pool transport itself is broken (cannot fork, no results
            # ever arrived); the instances are untouched, so take the next
            # ladder rung and recompute everything in-process.
            current_health().record_degradation("process->serial")
            return SerialBackend().run_plan(trees, plan)

    def _run_pool(
        self,
        trees: Sequence[TaskTree],
        plan: SweepPlan,
        groups: "list[tuple[int, Any]]",
        jobs: int,
    ) -> RecordTable:
        from .runner import _run_tree_task, canonical_combos, prepare_instance, quarantine_record

        config = plan.config
        faults = resolve_fault_plan(config.fault_plan)
        settings = RetrySettings.from_plan(faults)
        full = plan.is_full
        rows_of = dict(groups)
        combos_of: dict[int, Any] = {
            tree_index: None if full else [plan.combo(int(row)) for row in rows]
            for tree_index, rows in groups
        }
        chunks: dict[int, list[dict[str, Any]]] = {}
        health = current_health()

        def payload_for(tree_index: int, attempt: int) -> tuple[Any, ...]:
            if faults is not None:
                faults.preview(("worker-crash", "hang"), f"tree:{tree_index}", attempt)
            return (tree_index, trees[tree_index], config, combos_of[tree_index], attempt)

        def handle(outcome: tuple[int, list[dict[str, Any]]]) -> int:
            tree_index, records = outcome
            if faults is not None:
                # Worker-side quarantines (transient budget exhausted) are
                # invisible on the worker's own ledger; count them here.
                for record in records:
                    reason = record.get("failure_reason")
                    if reason is not None and reason.startswith(QUARANTINE_PREFIX):
                        health.quarantined_instances += 1
            chunks[tree_index] = records
            return tree_index

        def make_pool() -> Any:
            # chunksize=1 (in the drain) keeps the scheduling granularity
            # at one tree so a few large trees cannot serialise behind each
            # other within one worker.
            return multiprocessing.get_context().Pool(processes=jobs)

        leftover = drain_pool(
            make_pool,
            _run_tree_task,
            payload_for,
            [tree_index for tree_index, _ in groups],
            settings,
            handle,
        )
        for tree_index in leftover:
            # Poison tree group: every dispatch attempt was lost.  Build its
            # records parent-side, quarantined into the failure plane.
            context = prepare_instance(trees[tree_index], tree_index, config)
            combos = combos_of[tree_index]
            if combos is None:
                combos = canonical_combos(config)
            reason = (
                f"{QUARANTINE_PREFIX}: dispatch lost after "
                f"{settings.max_attempts} attempts"
            )
            chunks[tree_index] = [
                quarantine_record(
                    context, scheduler, num_processors, memory_factor, config, reason
                )
                for scheduler, num_processors, memory_factor in combos
            ]
            health.quarantined_instances += len(chunks[tree_index])
        keyed = (
            (int(rows_of[tree_index][position]), record)
            for tree_index, _ in groups
            for position, record in enumerate(chunks[tree_index])
        )
        return merge_records(len(plan), keyed)


# --------------------------------------------------------------------------- #
# shared-memory backend
# --------------------------------------------------------------------------- #
#: Worker-process state installed by the pool initializer: the attached
#: tree arena, the attached shared-memory result table (workers write their
#: rows in place), the sweep config (shipped once, not per task) and a
#: per-worker cache of InstanceContexts so repeated instances of one tree
#: share the order/minimum-memory pre-computation exactly like the per-tree
#: chunking.
_SHM_WORKER: dict[str, Any] = {}

#: Per-worker LRU bound on cached InstanceContexts.  Instances are
#: dispatched in canonical (tree-major) order, so a worker touches one or
#: two trees at a time and a small cache almost never misses; the bound
#: keeps N workers from each accumulating the derived data (orders,
#: minimum-memory memo) of the *entire* dataset over a long sweep — the
#: per-worker duplication the zero-copy arena exists to avoid.
_SHM_CONTEXT_CACHE_SIZE = 8


def _shm_worker_init(arena_name: str, results_name: str, config: SweepConfig) -> None:
    _SHM_WORKER["store"] = TreeStore.attach(arena_name)
    _SHM_WORKER["results"] = RecordTable.attach(results_name)
    _SHM_WORKER["config"] = config
    _SHM_WORKER["faults"] = resolve_fault_plan(config.fault_plan)
    _SHM_WORKER["contexts"] = OrderedDict()


def _shm_run_instance(
    payload: "tuple[int, int, str, int, float] | tuple[int, int, str, int, float, int]",
) -> "int | tuple[int, str]":
    """Simulate one instance, write its row in shared memory, return its index.

    The record itself never crosses the pool pipe: the worker places it into
    row ``global_index`` of the shared result table (rows are disjoint, so no
    locking is needed) and the parent only receives the pickled ``int`` —
    the ``result_payload_stats`` benchmark quantifies the drop versus
    pickled dicts.  The one exception is the dictionary-encoded
    ``failure_reason`` column: workers cannot coordinate a shared growing
    codes table, so a *failed* instance returns ``(index, reason)`` and the
    parent assigns the canonical code (failures are the rare case, so the
    typical payload stays a lone integer).
    """
    from .runner import prepare_instance, resilient_run_single

    # The historical 5-tuple (the documented wire shape, measured by the
    # payload-size benchmark) is still accepted: it is attempt 0.
    global_index, tree_index, scheduler, num_processors, memory_factor = payload[:5]
    attempt = payload[5] if len(payload) > 5 else 0
    faults = _SHM_WORKER["faults"]
    if faults is not None:
        faults.worker_entry(
            instance_fault_key(tree_index, scheduler, num_processors, memory_factor),
            attempt,
        )
    contexts: OrderedDict[int, Any] = _SHM_WORKER["contexts"]
    context = contexts.get(tree_index)
    if context is None:
        config = _SHM_WORKER["config"]
        store = _SHM_WORKER["store"]
        tree = store.tree(tree_index)
        # Arenas published with the full workspace plane-column set hand the
        # worker its static planes (orders, children CSR, request/release
        # blocks, tree-pure scalars) zero-copy instead of recomputing them
        # here; arenas with other/partial plane sets fall back to deriving.
        planes = None
        if store.plane_names:
            from ..batch.planes import context_planes_present

            candidate = store.planes_for(tree_index)
            if context_planes_present(candidate):
                planes = candidate
        context = contexts[tree_index] = prepare_instance(
            tree, tree_index, config, planes
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

    def __init__(self, jobs: int = 0, *, share_planes: bool = True) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
        self.jobs = int(jobs)
        #: When set (the default), the published arena carries the workspace
        #: plane columns of every tree
        #: (:func:`repro.batch.planes.workspace_planes`): workers adopt
        #: orders/workspaces/scalars zero-copy instead of recomputing them
        #: per process.  The parent pays at most one derivation pass up
        #: front — and none at all when the workload cache already seeded
        #: the per-tree plane memos — so N workers never re-derive the same
        #: static planes N times.  ``share_planes=False`` restores the
        #: plane-less version-1 arena transfer.
        self.share_planes = bool(share_planes)

    def dispatch_payloads(
        self, trees: Sequence[TaskTree], config: SweepConfig
    ) -> "list[tuple[int, int, str, int, float]]":
        return [
            (global_index, tree_index, scheduler, num_processors, memory_factor)
            for global_index, (tree_index, scheduler, num_processors, memory_factor) in enumerate(
                iter_instances(config, len(trees))
            )
        ]

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
            # attach, a pool that never produced a result); fall one rung
            # down the ladder — the per-tree pickling pool needs no arena.
            current_health().record_degradation("shared-memory->process")
            return ProcessPoolBackend(self.jobs).run_plan(trees, plan)

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
        # write index into the shared result table (for a full plan these
        # are exactly ``dispatch_payloads``'s tuples, plus the attempt slot).
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

        planes = None
        if self.share_planes:
            from ..batch.planes import workspace_planes

            planes = workspace_planes(trees, config)
        # Serialise straight into the segment: no intermediate arena copy.
        shm = TreeStore.pack_to_shared_memory(trees, planes=planes)
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
            _check_coverage(total, seen)
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
# resolution and accounting
# --------------------------------------------------------------------------- #
def resolve_backend(
    spec: "str | ExecutionBackend | None",
    config: SweepConfig,
    num_trees: int,
    jobs: int | None = None,
) -> ExecutionBackend:
    """Turn a backend spec (name, instance or None) into a backend object.

    ``None`` defers to ``config.backend``; ``"auto"`` preserves the
    historical behaviour of ``run_sweep``: serial for an effective worker
    count of one, otherwise the per-tree process pool.  An explicit ``jobs``
    (the ``run_sweep`` keyword) wins over ``config.jobs`` — including over
    the worker count a pre-built backend *instance* was configured with, in
    which case a shallow copy of the instance carries the override.  A
    backend instance *without* a ``jobs`` attribute (e.g.
    :class:`SerialBackend`) cannot carry a multi-worker override: passing
    ``jobs > 1`` alongside such an instance raises a :class:`RuntimeWarning`
    instead of silently dropping the request (``jobs=1`` is accepted — a
    single worker is exactly what a jobs-less backend runs).  An invalid
    ``jobs`` is rejected on every path, serial included, exactly as the
    pre-backend ``run_sweep`` did.
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
        from .runner import _resolve_jobs

        resolved = _resolve_jobs(jobs, config, num_trees)
        return SerialBackend() if resolved <= 1 else ProcessPoolBackend(resolved)
    factory = _BACKEND_FACTORIES.get(name)
    if factory is None:
        raise ValueError(f"unknown backend {name!r}; available: {sorted(BACKEND_NAMES)}")
    return factory(effective_jobs, config)


def dispatch_payload_stats(
    backend: ExecutionBackend,
    trees: Sequence[TaskTree],
    config: SweepConfig,
) -> dict[str, float]:
    """Pickled sizes of the exact payloads ``backend`` would ship to workers.

    Returns ``num_payloads``, ``total_bytes``, ``mean_bytes`` and
    ``max_bytes``.  This is what the transfer-cost benchmark records: for the
    per-tree pool every payload embeds full node arrays, while the
    shared-memory backend ships index tuples (the arena crosses once,
    out of band).
    """
    payloads = backend.dispatch_payloads(trees, config)
    return _payload_sizes(payloads)


def result_payload_stats(records: "RecordTable | Sequence[dict[str, Any]]") -> dict[str, dict[str, float]]:
    """Per-result pipe payload sizes: pickled dicts versus row indices.

    For each produced record, the pre-RecordTable pipeline shipped the whole
    pickled dict back through the pool pipe; the shared-memory result plane
    ships only the pickled row index — or ``(index, failure_reason)`` for
    the rare failed instance, whose message the merge side must
    dictionary-encode (the record bytes live in the shared table, out of
    band).  Returns ``{"dict_records": stats, "row_indices": stats}`` with
    the same keys as :func:`dispatch_payload_stats` — what the result-plane
    benchmark asserts the >= 10x drop on.
    """
    dicts = list(records)
    outcomes = [
        (index, record["failure_reason"])
        if record.get("failure_reason") is not None
        else index
        for index, record in enumerate(dicts)
    ]
    return {
        "dict_records": _payload_sizes(dicts),
        "row_indices": _payload_sizes(outcomes),
    }


def _payload_sizes(payloads: Sequence[Any]) -> dict[str, float]:
    sizes = [len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL)) for p in payloads]
    total = float(sum(sizes))
    return {
        "num_payloads": float(len(sizes)),
        "total_bytes": total,
        "mean_bytes": total / len(sizes) if sizes else 0.0,
        "max_bytes": float(max(sizes, default=0)),
    }


# --------------------------------------------------------------------------- #
# built-in backend registrations
# --------------------------------------------------------------------------- #
def _batched_factory(jobs: int, config: SweepConfig) -> ExecutionBackend:
    # Imported lazily: the batch subsystem sits above this module and pulls
    # in the scheduler kernels, which cold CLI paths should not pay for.
    from ..batch import BatchedBackend

    _ = (jobs, config)  # in-process, like SerialBackend
    return BatchedBackend()


register_backend("serial", lambda jobs, config: SerialBackend())
register_backend("process", lambda jobs, config: ProcessPoolBackend(jobs))
register_backend("shared-memory", lambda jobs, config: SharedMemoryBackend(jobs))
register_backend("batched", _batched_factory)
