"""Execution engine for experiment sweeps.

:func:`run_sweep` simulates every (tree, memory factor, processor count,
heuristic) combination of a :class:`~repro.experiments.config.SweepConfig`
and returns one flat record per simulation, collected in a columnar
:class:`~repro.experiments.records.RecordTable` (which also behaves as a
read-only sequence of plain ``dict`` records, the historical output format).
Records carry everything the figures need: the normalised makespan, the
peak/booked memory, the scheduling time and the instance characteristics.

The per-tree normalisations follow Section 7.2:

* the memory bound of a run is ``factor x minimum memory`` where the minimum
  memory is the sequential peak of the tree's memory-minimising postorder;
* makespans are normalised by the *best* lower bound — the maximum of the
  classical bound and the memory-aware bound of Theorem 3.

Parallel execution
------------------
The cartesian sweep is embarrassingly parallel, and the paper's campaigns
(Figures 2–15) multiply trees x memory factors x processor counts x
heuristics into thousands of simulations.  *How* the instances execute is
delegated to the backends of :mod:`repro.experiments.backends`:
in-process (``"serial"``, ``"batched"``) or the zero-copy shared-memory
worker pool with instance-granularity scheduling (``"shared-memory"``).
Every backend places each record at its canonical row, so the output is
identical — order and values, wall-clock ``scheduling_seconds``
measurements aside — whichever backend (and worker count) ran the sweep.
"""

from __future__ import annotations

import math
import weakref
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..bounds.makespan import LowerBounds
from ..core.task_tree import TaskTree
from ..core.tree_metrics import critical_path_length, height
from ..orders import ORDER_FACTORIES, Ordering, minimum_memory_postorder, sequential_peak_memory
from ..schedulers import (
    SCHEDULER_FACTORIES,
    EventDrivenScheduler,
    SimWorkspace,
    validate_schedule,
)
from ..schedulers.validation import resident_peak
from .config import SweepConfig
from .metrics import safe_ratio
from .records import RecordTable

__all__ = [
    "run_sweep",
    "run_single",
    "resilient_run_single",
    "run_instance",
    "complete_record",
    "quarantine_record",
    "canonical_combos",
    "prepare_instance",
    "InstanceContext",
]


#: Process-local memo of per-tree derived data keyed by tree *identity*:
#: ``{id(tree): {"order:<name>": Ordering, "minimum_memory": float}}``.
#: Orders are immutable (read-only sequence/rank arrays) so sharing them
#: between contexts is safe.  Sweeping the same trees under several
#: configurations (the AO/EO-choice figures run six configs over one
#: dataset) therefore computes each ordering — OptSeq in particular is the
#: costliest pre-computation of the harness — exactly once per tree.
#: Workers inherit an empty memo and fill their own, which preserves
#: determinism: memoisation only skips recomputation of values that are
#: pure functions of the tree.
#:
#: ``id`` keying (with a ``weakref.finalize`` evicting the entry when the
#: tree is collected, before its id can be reused) is deliberate:
#: ``TaskTree.__hash__`` hashes every node array, which would make each
#: memo *lookup* O(n) under a ``WeakKeyDictionary``.
_TREE_MEMO: dict[int, dict[str, Any]] = {}


def _tree_memo(tree: TaskTree) -> dict[str, Any]:
    key = id(tree)
    memo = _TREE_MEMO.get(key)
    if memo is None:
        memo = _TREE_MEMO[key] = {}
        weakref.finalize(tree, _TREE_MEMO.pop, key, None)
    return memo


class InstanceContext:
    """Per-tree data shared by every run on that tree.

    Besides the orders and the Section 7.2 minimum memory this now carries
    the whole *static simulation plane* of the tree: the
    :class:`~repro.schedulers.engine.SimWorkspace` (children CSR, AO/EO
    ranks, activation request/release planes) every run's kernels read, and
    the tree-pure ingredients of the makespan lower bounds (critical path,
    total work, memory-time demand) that used to be recomputed for every
    (processors, factor, heuristic) combination.

    ``planes`` — the workspace plane columns of a
    :class:`~repro.core.tree_store.TreeStore` arena (see
    :mod:`repro.batch.planes`) — short-circuits every derivation: the
    orders, the scalars and the workspace are adopted from the stored
    arrays instead of recomputed, which is how shared-memory workers
    inherit the static planes zero-copy instead of re-deriving them per
    process.  The stored values were produced by this very code path in the
    publishing process, so a plane-built context is indistinguishable from
    a computed one.
    """

    def __init__(
        self,
        tree: TaskTree,
        index: int,
        config: SweepConfig,
        planes: "Mapping[str, Any] | None" = None,
    ) -> None:
        if planes is None:
            # Plane columns seeded by the workload cache (keyed by the exact
            # (AO, EO) name pair, see ``WorkloadCache.fetch``); a sweep under
            # any other order pair misses and derives from scratch below.
            planes = _tree_memo(tree).get(
                f"planes:{config.activation_order}:{config.execution_order}"
            )
        if planes is not None:
            self._init_from_planes(tree, index, config, planes)
            return
        self.tree = tree
        self.index = index
        self.height = height(tree)
        self.ao = _make_order(tree, config.activation_order)
        self.eo = (
            self.ao
            if config.execution_order == config.activation_order
            else _make_order(tree, config.execution_order)
        )
        # "Minimum memory" of Section 7.2: peak of the memory-minimising
        # postorder (independent of the AO/EO actually used for scheduling).
        memo = _tree_memo(tree)
        minimum = memo.get("minimum_memory")
        if minimum is None:
            if config.activation_order == "memPO":
                reference_order = self.ao
            else:
                reference_order = minimum_memory_postorder(tree)
            minimum = sequential_peak_memory(tree, reference_order, check=False)
            memo["minimum_memory"] = minimum
        self.minimum_memory = minimum
        # Tree-pure lower-bound ingredients (Section 6): the critical path
        # and the memory-time demand of Theorem 3 do not depend on (p, M),
        # so computing them per run wasted an O(n) pass per record.
        critical_path = memo.get("critical_path")
        if critical_path is None:
            critical_path = memo["critical_path"] = critical_path_length(tree)
        self.critical_path = critical_path
        demand = memo.get("memtime_demand")
        if demand is None:
            demand = memo["memtime_demand"] = float(np.dot(tree.mem_needed, tree.ptime))
        self.memtime_demand = demand
        self.total_work = tree.total_work
        # Static simulation planes, shared by every run on this instance.
        self.workspace = SimWorkspace(tree, self.ao, self.eo)

    def _init_from_planes(
        self,
        tree: TaskTree,
        index: int,
        config: SweepConfig,
        planes: "Mapping[str, Any]",
    ) -> None:
        """Adopt arena-resident workspace planes instead of recomputing."""
        self.tree = tree
        self.index = index
        scalars = planes["ws:scalars"]
        self.height = int(scalars[3])
        ao_name = config.activation_order
        eo_name = config.execution_order
        self.ao = Ordering(planes["ws:ao_sequence"], name=ao_name)
        self.eo = (
            self.ao
            if eo_name == ao_name
            else Ordering(planes["ws:eo_sequence"], name=eo_name)
        )
        self.minimum_memory = float(scalars[0])
        self.critical_path = float(scalars[1])
        self.memtime_demand = float(scalars[2])
        self.total_work = tree.total_work
        self.workspace = SimWorkspace.from_planes(
            tree,
            self.ao,
            self.eo,
            child_offsets=planes["ws:child_offsets"],
            child_nodes=planes["ws:child_nodes"],
            request_ao=planes["ws:request_ao"],
            release=planes["ws:release"],
            ao_rank=planes["ws:ao_rank"],
            eo_rank=planes["ws:eo_rank"],
        )


def _make_order(tree: TaskTree, name: str) -> Ordering:
    try:
        factory = ORDER_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown ordering {name!r}; available: {sorted(ORDER_FACTORIES)}") from None
    memo = _tree_memo(tree)
    key = f"order:{name}"
    order = memo.get(key)
    if order is None:
        order = memo[key] = factory(tree)
    return order


def prepare_instance(
    tree: TaskTree,
    index: int,
    config: SweepConfig,
    planes: "Mapping[str, Any] | None" = None,
) -> InstanceContext:
    """Precompute the orders and minimum memory of one tree.

    ``planes`` (the workspace plane columns of a ``TreeStore`` arena, see
    :mod:`repro.batch.planes`) adopts the stored derivations instead of
    recomputing them.
    """
    return InstanceContext(tree, index, config, planes)


def complete_record(
    context: InstanceContext,
    scheduler_name: str,
    num_processors: int,
    memory_factor: float,
    config: SweepConfig,
    result,
    *,
    run_validation: bool = True,
    peak_deferred: bool = False,
) -> dict[str, Any]:
    """Validate a :class:`~repro.schedulers.base.ScheduleResult` and build its record.

    This is the single definition of "simulation outcome -> sweep record":
    :func:`run_single` feeds it the scalar schedulers' results and the
    batched backend (:mod:`repro.batch`) feeds it lane results, so the two
    paths cannot diverge on record contents.  ``run_validation=False`` lets
    the batched backend skip re-validating a collapsed lane whose identical
    schedule was already validated through its representative.

    ``peak_deferred=True`` says the producer left ``peak_memory`` for this
    function to fill (an event-driven scheduler run with ``peak_on_run``
    off, a lane representative): the peak then comes from the check that
    validates the schedule, the resident peak of
    :class:`~repro.schedulers.validation.ValidationReport`, which is
    bit-identical to ``resident_peak``; a schedule that is not validated
    costs one ``resident_peak`` call.  So every distinct simulated schedule
    is checked exactly once.  Otherwise the producer's peak is kept as it
    is: Sequential's closed-form peak (``nan`` when it fails), a lane
    clone's copy of its representative's, a quarantined row's ``0.0``.
    """
    tree = context.tree
    memory_limit = memory_factor * context.minimum_memory
    peak_memory = result.peak_memory
    if run_validation and config.validate and result.completed:
        report = validate_schedule(tree, result, native=config.native)
        report.raise_if_invalid()
        if peak_deferred:
            peak_memory = report.peak_memory
    elif peak_deferred:
        peak_memory = resident_peak(tree, result, config.native)
    # Same values as ``repro.bounds.lower_bounds`` with the tree-pure parts
    # (critical path, memory-time demand) read from the per-tree context.
    bounds = LowerBounds(
        work_bound=context.total_work / num_processors,
        critical_path_bound=context.critical_path,
        memory_bound=context.memtime_demand / float(memory_limit),
    )
    record: dict[str, Any] = {
        "tree_index": context.index,
        "tree_size": tree.n,
        "tree_height": context.height,
        "scheduler": scheduler_name,
        "num_processors": num_processors,
        "memory_factor": memory_factor,
        "memory_limit": memory_limit,
        "minimum_memory": context.minimum_memory,
        "completed": result.completed,
        "makespan": result.makespan,
        "lower_bound": bounds.combined,
        "classical_lower_bound": bounds.classical,
        "memory_lower_bound": bounds.memory_bound,
        "normalized_makespan": safe_ratio(result.makespan, bounds.combined),
        "peak_memory": peak_memory,
        "memory_fraction": safe_ratio(peak_memory, memory_limit),
        "scheduling_seconds": result.scheduling_seconds,
        "scheduling_seconds_per_node": result.scheduling_seconds / max(tree.n, 1),
        "activation_order": config.activation_order,
        "execution_order": config.execution_order,
        "failure_reason": result.failure_reason,
    }
    return record


def run_single(
    context: InstanceContext,
    scheduler_name: str,
    num_processors: int,
    memory_factor: float,
    config: SweepConfig,
) -> dict[str, Any]:
    """Run one heuristic on one instance and return its flat record."""
    memory_limit = memory_factor * context.minimum_memory
    factory = SCHEDULER_FACTORIES[scheduler_name]
    # Event-driven schedulers leave the peak to complete_record's schedule
    # check; Sequential's closed-form peak is part of its result.
    peak_deferred = issubclass(factory, EventDrivenScheduler)

    def simulate():
        scheduler = factory()
        scheduler.native = config.native
        if peak_deferred:
            scheduler.peak_on_run = False
        return scheduler.schedule(
            context.tree,
            num_processors,
            memory_limit,
            ao=context.ao,
            eo=context.eo,
            workspace=context.workspace,
        )

    result = simulate()
    # Timing figures re-run the (deterministic) simulation and keep the
    # fastest wall-clock per cell, so committed timing artifacts are stable
    # across regenerations; every value field comes from the first run.
    for _ in range(config.timing_repetitions - 1):
        result.scheduling_seconds = min(
            result.scheduling_seconds, simulate().scheduling_seconds
        )
    return complete_record(
        context,
        scheduler_name,
        num_processors,
        memory_factor,
        config,
        result,
        peak_deferred=peak_deferred,
    )


class _QuarantinedResult:
    """Stand-in :class:`~repro.schedulers.base.ScheduleResult` of an
    instance that exhausted its retry budget: nothing ran, so there is no
    schedule and no makespan — only the failure reason."""

    completed = False
    makespan = math.inf
    peak_memory = 0.0
    scheduling_seconds = 0.0

    def __init__(self, reason: str) -> None:
        self.failure_reason = reason


def quarantine_record(
    context: InstanceContext,
    scheduler_name: str,
    num_processors: int,
    memory_factor: float,
    config: SweepConfig,
    reason: str,
) -> dict[str, Any]:
    """The record of a poison instance, routed into the failure plane.

    Built through :func:`complete_record` so a quarantined row carries the
    same per-instance characteristics (sizes, bounds, limits) as every
    other record and lands in the canonical schema — only ``completed``,
    ``makespan`` and ``failure_reason`` mark it.  ``reason`` must start
    with :data:`repro.resilience.faults.QUARANTINE_PREFIX` so the cache
    layer can refuse to persist it.
    """
    return complete_record(
        context,
        scheduler_name,
        num_processors,
        memory_factor,
        config,
        _QuarantinedResult(reason),
        run_validation=False,
    )


def resilient_run_single(
    context: InstanceContext,
    scheduler_name: str,
    num_processors: int,
    memory_factor: float,
    config: SweepConfig,
    faults: "Any | None" = None,
) -> dict[str, Any]:
    """:func:`run_single` under the fault harness: transient-OSError retry.

    With no active :class:`~repro.resilience.faults.FaultPlan` this is a
    direct tail call — the fault-free hot path pays one ``None`` check.
    With a plan, an injected (or genuine) :class:`OSError` from the
    simulation is retried in place under the plan's bounded backoff
    budget; exhaustion quarantines the instance via
    :func:`quarantine_record` instead of failing the sweep.  Used by the
    serial backend, the batched backend's scalar path and the pool's
    workers, so transient faults behave identically everywhere.
    """
    if faults is None:
        return run_single(context, scheduler_name, num_processors, memory_factor, config)
    from ..resilience.faults import instance_fault_key
    from ..resilience.health import current_health
    from ..resilience.recovery import retry_sleep

    key = instance_fault_key(context.index, scheduler_name, num_processors, memory_factor)
    attempt = 0
    while True:
        try:
            faults.maybe_raise("os-transient", key, attempt=attempt)
            return run_single(
                context, scheduler_name, num_processors, memory_factor, config
            )
        except OSError as exc:
            attempt += 1
            health = current_health()
            if attempt >= faults.max_attempts:
                health.quarantined_instances += 1
                return quarantine_record(
                    context,
                    scheduler_name,
                    num_processors,
                    memory_factor,
                    config,
                    f"quarantined after {attempt} attempts: {exc}",
                )
            health.retries += 1
            retry_sleep(faults.backoff, attempt)


def canonical_combos(config: SweepConfig) -> list[tuple[str, int, float]]:
    """The canonical per-tree (scheduler, processors, factor) enumeration.

    Exactly the order the plan layer's ``iter_instances`` uses within one
    tree — processors outer, memory factors, schedulers inner — so callers
    re-materialising a "full tree" dispatch reproduce the serial record
    order.
    """
    return [
        (scheduler_name, num_processors, memory_factor)
        for num_processors in config.processors
        for memory_factor in config.memory_factors
        for scheduler_name in config.schedulers
    ]


def run_instance(tree: TaskTree, index: int, config: SweepConfig) -> list[dict[str, Any]]:
    """Run every (processors, factor, heuristic) combination on one tree.

    The :class:`InstanceContext` (orders, minimum memory) is computed once
    and shared by all the runs on the tree; records come in the canonical
    per-tree order of :func:`canonical_combos`.
    """
    context = prepare_instance(tree, index, config)
    return [run_single(context, *combo, config) for combo in canonical_combos(config)]


def run_sweep(
    trees: Sequence[TaskTree] | Iterable[TaskTree],
    config: SweepConfig | None = None,
    *,
    jobs: int | None = None,
    backend: "str | Any | None" = None,
    **overrides,
) -> "RecordTable":
    """Run the full cartesian sweep described by ``config`` over ``trees``.

    Keyword overrides are applied on top of ``config`` (e.g.
    ``run_sweep(trees, processors=(2, 4))``).  The result is a columnar
    :class:`~repro.experiments.records.RecordTable`; iterate it (or call
    ``.to_dicts()``) for the historical list-of-dicts view, or read whole
    columns with ``table.column(name)`` for vectorised post-processing.

    Parameters
    ----------
    jobs:
        Number of worker processes (overrides ``config.jobs`` when given).
        ``1`` runs in-process; ``0`` uses one worker per available CPU.
    backend:
        Execution backend: a name (``"auto"``, ``"batched"``, ``"serial"``,
        ``"shared-memory"``) or an
        :class:`~repro.experiments.backends.ExecutionBackend` instance;
        ``None`` defers to ``config.backend`` (default ``"auto"``: serial for
        one worker, the shared-memory pool otherwise).  Whatever the backend and worker count, the
        records come back in the serial order with the serial values —
        only the wall-clock ``scheduling_seconds`` measurements differ.
    """
    if config is None:
        config = SweepConfig(**overrides)
    elif overrides:
        config = config.with_overrides(**overrides)
    tree_list = list(trees)

    from .backends import resolve_backend

    return resolve_backend(backend, config, len(tree_list), jobs).run(tree_list, config)
