"""Post-hoc analysis of produced schedules: memory profile and feasibility.

The heuristics reason about *booked* memory; what the paper reports (and what
actually matters for correctness) is the **resident** memory of the schedule
they produce:

* the output ``f_i`` of task ``i`` is allocated when ``i`` starts and freed
  when its parent finishes (never freed for the root),
* the execution data ``n_i`` and the inputs of ``i`` are only needed while
  ``i`` runs (the inputs are the children outputs, already counted above).

:func:`memory_profile` reconstructs that piecewise-constant profile from the
start/finish times of a schedule, and :func:`validate_schedule` checks every
feasibility condition of the model:

1. every task runs exactly once, for exactly its processing time;
2. precedence: a task starts only after all of its children finished;
3. at most ``p`` tasks overlap at any instant;
4. no two tasks overlap on the same processor;
5. the resident memory never exceeds the bound ``M`` — skipped for a
   result whose ``extras`` mark it ``memory_oblivious`` (``ListNoMemory``
   ignores the bound by design; its peak is what the record reports).

These checks run on every schedule of a sweep (``SweepConfig.validate``),
so with the native kernel plane loaded both functions first ask the C
kernel ``memtree_check_schedule`` (:func:`repro.native.check_schedule`):
one stable sort of the start and finish instants, then linear passes.
Its contract is *accept or defer*: when C finds the schedule feasible,
:func:`validate_schedule` returns ``ValidationReport(True, (), peak)``
with ``peak`` bit-identical to ``memory_profile(...).peak``; on any
violation, or on inputs it does not decide (a started task without a
finite finish, a negative instant, a processor id out of range), the numpy
checks below run unchanged and word the report.  So C can only accept a
schedule that numpy accepts, and every report is the same either way.
:func:`resident_peak` is the peak-only twin.

Both entry points sort the schedule's instants, so each schedule should
pay for one of them, not two.  The rule: **a peak comes from the check
that validates it.**  ``ValidationReport.peak_memory`` is bit-identical
to ``resident_peak`` (either way through C or numpy), so a sweep record
takes its peak from the report of the validation it runs anyway
(:func:`repro.experiments.runner.complete_record`), and its event-driven
schedulers run with ``peak_on_run`` off.  ``resident_peak`` serves the
schedules that are not validated: a direct ``Scheduler.schedule`` call, a
failed run, or a sweep with ``SweepConfig.validate`` off.  (Sequential's
peak is its closed form, not a check, and is kept as it reports it.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.task_tree import NO_PARENT, TaskTree
from .base import UNSCHEDULED, ScheduleResult

__all__ = [
    "MemoryProfile",
    "memory_profile",
    "resident_peak",
    "validate_schedule",
    "ValidationReport",
]


@dataclass(frozen=True)
class MemoryProfile:
    """Piecewise-constant resident-memory profile of a schedule.

    ``times`` holds the breakpoints (sorted, unique) and ``memory[k]`` is the
    resident memory on the interval ``[times[k], times[k+1])``.
    """

    times: np.ndarray
    memory: np.ndarray

    @property
    def peak(self) -> float:
        """Maximum resident memory over the whole execution."""
        return float(self.memory.max()) if self.memory.size else 0.0

    def at(self, t: float) -> float:
        """Resident memory at time ``t`` (right-continuous)."""
        index = int(np.searchsorted(self.times, t, side="right")) - 1
        if index < 0:
            return 0.0
        return float(self.memory[index])

    def average(self) -> float:
        """Time-averaged resident memory over the schedule's span."""
        if self.times.size < 2:
            return float(self.memory[0]) if self.memory.size else 0.0
        durations = np.diff(self.times)
        total = float(durations.sum())
        if total <= 0:
            return float(self.memory.max())
        return float(np.dot(self.memory[:-1], durations) / total)


def memory_profile(tree: TaskTree, result: ScheduleResult) -> MemoryProfile:
    """Reconstruct the resident-memory profile of a (possibly partial) schedule.

    Only tasks that actually ran (finite start time) contribute.  Outputs of
    tasks whose parent never ran stay resident until the end of the horizon,
    which is the correct behaviour for failed/partial schedules.

    The reconstruction is fully vectorised (allocation/release events are
    aggregated with :func:`numpy.unique` and a cumulative sum) because it
    runs once per simulated schedule — on the hot path of every sweep.
    """
    start = result.start_times
    finish = result.finish_times
    ran = np.isfinite(start)
    if not ran.any():
        return MemoryProfile(times=np.asarray([0.0]), memory=np.asarray([0.0]))

    horizon = float(np.nanmax(finish[ran]))
    parent = tree.parent
    nexec = tree.nexec
    fout = tree.fout

    # Execution data and input consumption are counted through nexec only:
    # the children outputs are already resident (allocated at the child's
    # start) so adding them here would double count.
    exec_mask = ran & (nexec > 0)
    # Output: allocated at start, freed when the parent finishes; when the
    # parent never ran the output stays resident until the horizon.
    out_mask = ran & (fout > 0)
    parent_ran = np.zeros(tree.n, dtype=bool)
    has_parent = parent != NO_PARENT
    parent_ran[has_parent] = ran[parent[has_parent]]
    release_mask = out_mask & parent_ran

    times = np.concatenate(
        [
            start[exec_mask],
            finish[exec_mask],
            start[out_mask],
            finish[parent[release_mask]],
        ]
    )
    deltas = np.concatenate(
        [
            nexec[exec_mask],
            -nexec[exec_mask],
            fout[out_mask],
            -fout[release_mask],
        ]
    ).astype(np.float64)

    if times.size == 0:
        return MemoryProfile(times=np.asarray([0.0, horizon]), memory=np.asarray([0.0, 0.0]))

    # The profile always starts at t=0 with zero resident memory; a zero
    # sentinel event merges with any real events happening exactly at 0.
    times = np.concatenate([[0.0], times])
    deltas = np.concatenate([[0.0], deltas])
    unique_times, inverse = np.unique(times, return_inverse=True)
    summed = np.zeros(unique_times.size, dtype=np.float64)
    np.add.at(summed, inverse, deltas)
    memory = np.cumsum(summed)
    if unique_times[-1] < horizon:
        unique_times = np.concatenate([unique_times, [horizon]])
        memory = np.concatenate([memory, memory[-1:]])
    return MemoryProfile(times=unique_times, memory=memory)


def _memory_bound(result: ScheduleResult) -> float:
    """The bound check 5 applies: none for a memory-oblivious schedule."""
    return math.inf if result.extras.get("memory_oblivious") else result.memory_limit


def _native_check(
    tree: TaskTree,
    result: ScheduleResult,
    native: bool | None,
    tolerance: float,
    peak_only: bool,
) -> float | None:
    """The C check's peak when it accepts the schedule, else ``None``."""
    from ..native import check_schedule, native_kernels  # lazy: ctypes + build

    kernels = native_kernels(native)
    if kernels is None:
        return None
    mask, peak = check_schedule(
        kernels,
        tree,
        result,
        tolerance=tolerance,
        peak_only=peak_only,
        memory_limit=_memory_bound(result),
    )
    return peak if mask == 0 else None


def resident_peak(
    tree: TaskTree, result: ScheduleResult, native: bool | None = None
) -> float:
    """``memory_profile(tree, result).peak``, through C when it is loaded.

    ``native`` resolves like ``SweepConfig.native``: ``False`` never
    reaches C, ``None`` defers to ``REPRO_NATIVE``.
    """
    peak = _native_check(tree, result, native, 0.0, True)
    if peak is None:
        peak = memory_profile(tree, result).peak
    return peak


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_schedule`."""

    valid: bool
    errors: tuple[str, ...]
    peak_memory: float

    def raise_if_invalid(self) -> None:
        """Raise ``AssertionError`` with every violation when invalid."""
        if not self.valid:
            raise AssertionError("invalid schedule:\n" + "\n".join(self.errors))


def validate_schedule(
    tree: TaskTree,
    result: ScheduleResult,
    *,
    tolerance: float = 1e-6,
    native: bool | None = None,
) -> ValidationReport:
    """Check a completed schedule against every constraint of the model.

    For a schedule with ``completed=False`` the function only verifies the
    consistency of the part that did run (durations, precedence among the
    executed tasks, processor and memory constraints up to the failure
    point).  ``native`` selects the C check as :func:`resident_peak` does;
    the report is the same either way (see the module docstring).
    """
    peak = _native_check(tree, result, native, tolerance, False)
    if peak is not None:
        return ValidationReport(valid=True, errors=(), peak_memory=peak)

    errors: list[str] = []
    start = result.start_times
    finish = result.finish_times
    proc = result.processor
    n = tree.n
    scale = max(1.0, float(np.nanmax(finish)) if np.isfinite(finish).any() else 1.0)
    tol = tolerance * scale

    ran = np.isfinite(start) & np.isfinite(finish)
    if result.completed and not ran.all():
        errors.append("schedule claims completion but some tasks never ran")

    # Every check below is vectorised: the validator runs on every schedule
    # of a sweep (SweepConfig.validate defaults to True), so per-node Python
    # loops would dominate the experiment wall-clock on large trees.  Python
    # iteration only happens over the (normally empty) violation sets.

    # 1. durations
    ran_nodes = np.flatnonzero(ran)
    actual = finish[ran_nodes] - start[ran_nodes]
    expected = tree.ptime[ran_nodes]
    wrong_duration = np.abs(actual - expected) > tol
    for node, act, exp in zip(
        ran_nodes[wrong_duration], actual[wrong_duration], expected[wrong_duration]
    ):
        errors.append(f"task {node} ran for {act:.6g} instead of {exp:.6g}")
    for node in ran_nodes[start[ran_nodes] < -tol]:
        errors.append(f"task {node} starts before time 0")
    for node in ran_nodes[proc[ran_nodes] == UNSCHEDULED]:
        errors.append(f"task {node} ran but has no processor assigned")

    # 2. precedence (edges run child -> parent)
    children = np.flatnonzero(tree.parent != NO_PARENT)
    parents = tree.parent[children]
    parent_ran = ran[parents]
    for child in children[parent_ran & ~ran[children]]:
        errors.append(
            f"task {tree.parent[child]} ran before its child {child} was executed"
        )
    both = parent_ran & ran[children]
    late = both & (start[parents] < finish[children] - tol)
    for child, parent in zip(children[late], parents[late]):
        errors.append(
            f"task {parent} started at {start[parent]:.6g} before child {child} "
            f"finished at {finish[child]:.6g}"
        )

    # 3. processor count: sweep over start/finish events (finish events sort
    # before start events at the same instant, as in an event-driven runtime).
    busy = ran & (tree.ptime > 0)  # zero-duration tasks occupy no processor time
    busy_nodes = np.flatnonzero(busy)
    if busy_nodes.size:
        event_times = np.concatenate([start[busy_nodes], finish[busy_nodes]])
        event_deltas = np.concatenate(
            [np.ones(busy_nodes.size), -np.ones(busy_nodes.size)]
        )
        order = np.lexsort((event_deltas, event_times))
        running_count = np.cumsum(event_deltas[order])
        if running_count.max() > result.num_processors:
            errors.append(
                f"more than p={result.num_processors} tasks run simultaneously"
            )

    # 4. no overlap on a single processor: sort by (processor, start) and
    # compare each interval with its successor on the same processor.
    assigned = busy & (proc != UNSCHEDULED)
    nodes = np.flatnonzero(assigned)
    if nodes.size > 1:
        order = np.lexsort((finish[nodes], start[nodes], proc[nodes]))
        nodes = nodes[order]
        same_proc = proc[nodes[:-1]] == proc[nodes[1:]]
        overlap = same_proc & (start[nodes[1:]] < finish[nodes[:-1]] - tol)
        for n1, n2 in zip(nodes[:-1][overlap], nodes[1:][overlap]):
            errors.append(
                f"tasks {n1} and {n2} overlap on processor {proc[n1]}"
            )

    # 5. memory bound
    profile = memory_profile(tree, result)
    if profile.peak > _memory_bound(result) * (1 + tolerance) + tol:
        errors.append(
            f"resident memory peaks at {profile.peak:.6g} above the bound "
            f"{result.memory_limit:.6g}"
        )

    return ValidationReport(valid=not errors, errors=tuple(errors), peak_memory=profile.peak)
