"""Common scheduler interface and result container.

Every scheduling heuristic of the paper is exposed as a :class:`Scheduler`
subclass whose :meth:`Scheduler.schedule` method simulates the parallel
execution of a task tree on ``p`` processors sharing ``memory_limit`` bytes
and returns a :class:`ScheduleResult` describing the outcome — start/finish
times, processor assignment, makespan, actual peak memory and the wall-clock
time of the simulation (the quantity plotted in Figures 5, 6 and 13 of the
paper).

A heuristic that cannot make progress under the given memory bound (which
does happen for ``MemBookingRedTree`` under tight memory, Section 7.4) does
not raise: it returns a result with ``completed=False`` and a
``failure_reason`` so experiment sweeps can count failures exactly like the
paper does.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core.task_tree import TaskTree
from ..orders import Ordering, minimum_memory_postorder

__all__ = [
    "ReadyQueue",
    "ScheduleResult",
    "Scheduler",
    "SchedulingError",
    "UNSCHEDULED",
    "check_activation_order",
]

#: Sentinel processor id for tasks that never ran (failed schedules).
UNSCHEDULED: int = -1


class ReadyQueue:
    """Heap-backed queue of ready tasks keyed by an order's rank array.

    Every dynamic heuristic keeps a pool of tasks that may start right now
    and repeatedly extracts the one with the highest priority of the
    execution order ``EO`` (smallest rank).  The seed implementations used a
    mix of ad-hoc structures for this — ``IndexedHeap`` with hand-computed
    priorities in ``Activation``/``MemBooking``, an O(n) ``min`` scan over a
    plain set in ``MemBookingReference`` — so the hot decision path of large
    sweeps paid a linear scan per started task.  ``ReadyQueue`` centralises
    the pattern: it stores the rank array once and provides amortised
    O(log n) ``add``/``pop`` on the C-implemented :mod:`heapq`, with
    ``remove`` handled by lazy deletion (stale heap entries are skipped when
    they surface).  Entries are ``(rank, node)`` pairs, so extraction is
    deterministic: ranks are permutations, ties cannot occur between
    distinct nodes, and a re-added node is indistinguishable from its stale
    entry — schedules stay exactly reproducible.

    ``pop`` and ``peek`` return ``None`` on an empty queue.  The frozen
    engine of :mod:`repro.schedulers.reference` pops its ready tasks through
    it; the kernels of the live engine keep the same ``(rank, node)`` pairs
    in a plain heap that the event loop pops directly.

    ``rank`` may be a NumPy rank array or a plain Python list of ranks; the
    queue indexes it on every ``add``.
    """

    __slots__ = ("_heap", "_live", "_rank")

    def __init__(self, rank: "np.ndarray | list[int]", items: Iterable[int] = ()) -> None:
        self._rank: list[int] = rank if isinstance(rank, list) else np.asarray(rank).tolist()
        self._heap: list[tuple[int, int]] = []
        self._live: set[int] = set()
        for item in items:
            self.add(int(item))

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, node: int) -> bool:
        return node in self._live

    def add(self, node: int) -> None:
        """Insert ``node`` with the priority of its rank (raise if present)."""
        if node in self._live:
            raise ValueError(f"item {node!r} already in heap")
        self._live.add(node)
        heapq.heappush(self._heap, (self._rank[node], node))

    def pop(self) -> int | None:
        """Remove and return the best-ranked node, or ``None`` when empty."""
        live = self._live
        if not live:
            return None
        heap = self._heap
        while True:
            node = heapq.heappop(heap)[1]
            if node in live:
                live.remove(node)
                return node

    def peek(self) -> int | None:
        """Return the best-ranked node without removing it (``None`` if empty)."""
        live = self._live
        if not live:
            return None
        heap = self._heap
        while heap[0][1] not in live:  # drop stale entries of removed nodes
            heapq.heappop(heap)
        return heap[0][1]

    def remove(self, node: int) -> None:
        """Remove an arbitrary ``node`` (raise ``KeyError`` when absent).

        Lazy: the heap entry stays behind and is skipped when it surfaces.
        """
        self._live.remove(node)

    def discard(self, node: int) -> None:
        """Remove ``node`` when present, do nothing otherwise."""
        self._live.discard(node)


class SchedulingError(RuntimeError):
    """Raised for invalid scheduling requests (bad processor count, ...).

    Note that an *infeasible* instance (memory too small) is not an error:
    the heuristics report it through :attr:`ScheduleResult.completed`.
    """


@dataclass
class ScheduleResult:
    """Outcome of simulating a heuristic on one instance.

    Attributes
    ----------
    scheduler:
        Name of the heuristic (``"Activation"``, ``"MemBooking"``, ...).
    tree_size:
        Number of tasks of the instance.
    num_processors, memory_limit:
        Platform parameters of the simulation.
    completed:
        ``True`` when every task was executed within the memory bound.
    failure_reason:
        Human-readable explanation when ``completed`` is ``False``.
    makespan:
        Total completion time (``math.inf`` when the schedule failed).
    start_times, finish_times:
        Per-task times (``nan`` for tasks that never ran).
    processor:
        Per-task processor index (:data:`UNSCHEDULED` for tasks that never ran).
    peak_memory:
        Actual peak resident memory of the produced schedule (outputs alive
        plus execution data of running tasks), *not* the heuristic's internal
        booked memory.  This is the quantity reported in Figures 4 and 12.
    scheduling_seconds:
        Wall-clock time of the simulation call (kernel set-up and event
        loop, C or Python), excluding the order pre-computation.
    num_events:
        Number of simulation events processed (task completions + start).
    activation_order, execution_order:
        Names of the AO / EO used.
    extras:
        Free-form per-heuristic diagnostics (booked-memory peak, number of
        fictitious nodes, ...).
    """

    scheduler: str
    tree_size: int
    num_processors: int
    memory_limit: float
    completed: bool
    makespan: float
    start_times: np.ndarray
    finish_times: np.ndarray
    processor: np.ndarray
    peak_memory: float
    scheduling_seconds: float
    num_events: int
    activation_order: str = ""
    execution_order: str = ""
    failure_reason: str | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def normalized_memory(self) -> float:
        """Peak memory divided by the memory bound (fraction of memory used)."""
        if self.memory_limit <= 0:
            return math.nan
        return self.peak_memory / self.memory_limit

    def speedup_over(self, other: "ScheduleResult") -> float:
        """Makespan ratio ``other / self`` (how much faster this schedule is)."""
        if not (self.completed and other.completed) or self.makespan <= 0:
            return math.nan
        return other.makespan / self.makespan

    def summary(self) -> dict[str, Any]:
        """Flat dictionary used by the experiment reporting layer."""
        return {
            "scheduler": self.scheduler,
            "n": self.tree_size,
            "p": self.num_processors,
            "memory_limit": self.memory_limit,
            "completed": self.completed,
            "makespan": self.makespan,
            "peak_memory": self.peak_memory,
            "scheduling_seconds": self.scheduling_seconds,
            "num_events": self.num_events,
            "activation_order": self.activation_order,
            "execution_order": self.execution_order,
        }


def check_activation_order(
    tree: TaskTree, ao: Ordering, eo: Ordering, workspace: Any = None
) -> None:
    """Raise :class:`SchedulingError` unless ``ao`` is a topological order.

    The check is skipped only for a workspace that ``matches(tree, ao, eo)``
    and recorded an earlier successful check of that very ``ao``; the
    record is set only after the check passes.
    """
    matching = workspace is not None and workspace.matches(tree, ao, eo)
    if matching and workspace.ao_topological:
        return
    if not ao.is_topological(tree):
        raise SchedulingError("the activation order must be a topological order")
    if matching:
        workspace.ao_topological = True


class Scheduler(ABC):
    """Base class of all scheduling heuristics.

    Subclasses implement :meth:`_run` (usually through the event-driven
    engine of :mod:`repro.schedulers.engine`); :meth:`schedule` performs the
    argument validation and default-order handling shared by every heuristic.
    """

    #: Human readable name used in reports and result objects.
    name: str = "scheduler"

    def default_orders(self, tree: TaskTree) -> tuple[Ordering, Ordering]:
        """Default (AO, EO): the memory-minimising postorder for both.

        This matches the experimental setup of Section 7.2 ("the previous
        postorder was used as input for both the activation order AO and the
        execution order EO").
        """
        order = minimum_memory_postorder(tree)
        return order, order

    def schedule(
        self,
        tree: TaskTree,
        num_processors: int,
        memory_limit: float,
        *,
        ao: Ordering | None = None,
        eo: Ordering | None = None,
        invariant_hook: Callable[[Mapping[str, Any]], None] | None = None,
        workspace: Any = None,
    ) -> ScheduleResult:
        """Simulate the heuristic on ``tree``.

        Parameters
        ----------
        tree:
            The task tree instance.
        num_processors:
            Number of identical processors ``p >= 1``.
        memory_limit:
            Shared memory size ``M`` (must be positive).
        ao, eo:
            Activation and execution orders; both default to the
            memory-minimising postorder.  ``ao`` must be a topological order.
        invariant_hook:
            Optional callback invoked by engine-based heuristics after every
            event with a dictionary of internal state; used by the test-suite
            to assert the bookkeeping invariants (Lemmas 2–5) at every step.
        workspace:
            Optional :class:`~repro.schedulers.engine.SimWorkspace` with the
            static planes of (tree, ao, eo), reused across repeated runs on
            one tree (the sweep harness passes its per-instance workspace).
            A workspace built for different inputs is ignored and replaced,
            so a stale one can cost time but never correctness.  A matching
            workspace also remembers that ``ao`` passed the topological
            check, so repeated runs on one instance check it once.
        """
        if num_processors < 1:
            raise SchedulingError("num_processors must be at least 1")
        if not math.isfinite(memory_limit) or memory_limit <= 0:
            raise SchedulingError("memory_limit must be a positive finite number")
        if ao is None or eo is None:
            default_ao, default_eo = self.default_orders(tree)
            ao = ao if ao is not None else default_ao
            eo = eo if eo is not None else default_eo
        if ao.n != tree.n or eo.n != tree.n:
            raise SchedulingError("orders must cover exactly the nodes of the tree")
        check_activation_order(tree, ao, eo, workspace)
        return self._run(
            tree,
            int(num_processors),
            float(memory_limit),
            ao,
            eo,
            invariant_hook=invariant_hook,
            workspace=workspace,
        )

    @abstractmethod
    def _run(
        self,
        tree: TaskTree,
        num_processors: int,
        memory_limit: float,
        ao: Ordering,
        eo: Ordering,
        *,
        invariant_hook: Callable[[Mapping[str, Any]], None] | None = None,
        workspace: Any = None,
    ) -> ScheduleResult:
        """Heuristic-specific simulation (implemented by subclasses)."""
        raise NotImplementedError
