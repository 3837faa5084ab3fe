"""Event-driven simulation engine for the dynamic heuristics.

All three heuristics of the paper (Activation, MemBookingRedTree and
MemBooking) follow the same outer loop (Algorithms 1 and 2): wait for an
event (``t = 0`` or a task completion), update the heuristic's bookkeeping,
activate new tasks if memory allows, then greedily assign activated & ready
tasks to idle processors following the execution order ``EO``.

That loop exists once in Python, :func:`simulate_kernel`, and once in C,
:func:`repro.native.simulate`.  Both return a
:class:`~repro.native.NativeOutcome` with identical values, which
:func:`result_from_outcome` turns into a :class:`ScheduleResult`.  The loop
works on flat state:

* the event queue holds primitive ``(finish_time, node)`` pairs, so ties at
  one instant break by node index; all completions of an instant reach the
  heuristic as one batch, in ascending node order;
* the free-processor stack hands out processor 0 first;
* per-task results accumulate in plain lists and become arrays once, at
  the end of the run;
* the static per-tree planes (children CSR, AO/EO ranks, activation
  requests along the AO, per-node release volumes) are computed once per
  (tree, AO, EO) in a :class:`SimWorkspace` and shared by every run on that
  tree; the experiment harness builds one per
  :class:`~repro.experiments.runner.InstanceContext`.

A heuristic is a **kernel** class.  A kernel object holds the state of one
run: it is built per call and dropped when the call returns, so a scheduler
object keeps no per-run state.  A kernel class provides

``Kernel(workspace, memory_limit)``
    the state of one run;
``bind()``
    the transitions ``(activate, on_started, on_finished)``, closures over
    that state: ``activate()`` activates candidates while memory allows and
    pushes the ``(EO rank, node)`` pair of every task that became ready onto
    ``kernel.ready``, a plain heap the loop pops; ``on_started(node)`` marks
    a dispatched task (``None`` when a heuristic has nothing to mark);
    ``on_finished(nodes)`` releases or re-dispatches the memory of the tasks
    completing at one instant;
``extras()`` / ``invariant_state()``
    the diagnostics of ``ScheduleResult.extras``, and the snapshot handed to
    ``invariant_hook`` after every event instant;
``ready``, ``orphans``, ``memory_bound``, ``bound_need``
    the ready heap and the collapse diagnostics the lane engine reads.

A kernel the lane engine of :mod:`repro.batch.lanes` runs also has a static
``template(workspace)``, the state every run on a workspace starts from,
built once per tree and passed as the constructor's third argument.

:class:`EventDrivenScheduler` names its kernel class in ``kernel``.  A run
takes the C stepper when the native plane is on, no invariant hook is
passed and the kernel class itself declares ``native_kernel``, the name of
its C twin (:func:`native_twin`).  A subclass of a kernel inherits the
attribute but not the twin, so changed transitions always run in Python.

``scheduling_seconds`` is the wall-clock of the one simulation call, kernel
set-up included, on both planes.  Schedules are **bit-identical** to the
pre-array engine preserved in :mod:`repro.schedulers.reference` (event
order, tie-breaking, deadlock semantics and floating-point bookkeeping,
pinned by ``tests/test_array_engine_parity.py``).

Deadlock handling: if at some event no task is running and the kernel
cannot produce a ready task while unprocessed tasks remain, the heuristic
cannot complete the tree under this memory bound.  The loop then returns
with ``completed=False`` instead of raising, because "this instance cannot
be scheduled" is a legitimate experimental outcome (Section 7.4 reports
exactly that for MemBookingRedTree).
"""

from __future__ import annotations

import math
import time
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from ..analysis.registry import hot_kernel
from ..core.task_tree import NO_PARENT, TaskTree
from ..orders import Ordering
from .base import UNSCHEDULED, ScheduleResult, Scheduler
from .validation import memory_profile  # noqa: F401  (tracers patch it by module)
from .validation import resident_peak

if TYPE_CHECKING:
    from ..native import NativeOutcome

__all__ = [
    "EventDrivenScheduler",
    "SimWorkspace",
    "native_twin",
    "result_from_outcome",
    "simulate_kernel",
]


class SimWorkspace:
    """Static per-(tree, AO, EO) simulation planes, computed once, reused per run.

    The array kernels of the heuristics take per-node decisions with scalar
    reads and vectorised scans; both want the tree data in flat, cheap-to-
    index form.  A workspace precomputes, once per (tree, activation order,
    execution order):

    * plain-list mirrors of the node planes (``parent``, ``ptime``, ``fout``,
      ``mem_needed``) — CPython list indexing is several times faster than
      NumPy scalar indexing on the one-node-at-a-time walks;
    * the children CSR plane (:attr:`child_offsets` / :attr:`child_nodes`)
      straight from :attr:`repro.core.task_tree.TaskTree.children_csr`;
    * AO/EO rank lists and the AO sequence;
    * the Activation-family planes, packed into **one contiguous float64
      scratch block** (one allocation per tree): the booking request of every
      node *in AO position order* (``nexec + fout`` along the activation
      sequence — the vectorised prefix scan of ``UpdateCAND-ACT`` cumsums
      this row directly) and the per-node release volume on completion
      (``nexec + sum of children fout``).

    Workspaces are plain value objects: building one is O(n), holds no
    mutable simulation state (per-run state lives in a kernel), and is
    only ever *read* by runs.  The engine validates that a workspace matches
    the (tree, AO, EO) of the run and silently builds a fresh one otherwise,
    so passing a stale workspace cannot corrupt a schedule.  All node arrays
    are derived from the tree's own (possibly arena-backed) buffers, so
    shared-memory workers build their workspaces from the zero-copy planes
    they inherited.
    """

    __slots__ = (
        "tree",
        "ao",
        "eo",
        "n",
        "parent_list",
        "ptime_list",
        "fout_list",
        "mem_needed_list",
        "num_children_list",
        "child_offsets",
        "child_nodes",
        "leaves_list",
        "ao_sequence_list",
        "ao_rank_list",
        "eo_rank_list",
        "_block",
        "request_ao",
        "request_ao_list",
        "release_list",
        "_native_planes",
        "ao_topological",
    )

    def __init__(self, tree: TaskTree, ao: Ordering, eo: Ordering) -> None:
        self.tree = tree
        self.ao = ao
        self.eo = eo
        n = self.n = tree.n

        self.parent_list: list[int] = tree.parent.tolist()
        self.ptime_list: list[float] = tree.ptime.tolist()
        self.fout_list: list[float] = tree.fout.tolist()
        self.mem_needed_list: list[float] = tree.mem_needed.tolist()

        offsets, nodes = tree.children_csr
        self.child_offsets: list[int] = offsets.tolist()
        self.child_nodes: list[int] = nodes.tolist()
        self.num_children_list: list[int] = np.diff(offsets).tolist()
        self.leaves_list: list[int] = tree.leaves().tolist()

        self.ao_sequence_list: list[int] = ao.sequence.tolist()
        self.ao_rank_list: list[int] = ao.rank.tolist()
        self.eo_rank_list: list[int] = (
            self.ao_rank_list if eo is ao else eo.rank.tolist()
        )

        # One contiguous scratch block for the Activation-family float
        # planes; row views keep the block alive and cache-friendly.
        block = self._block = np.empty((2, n), dtype=np.float64)
        request_ao = block[0]
        release = block[1]
        # Booking request of the node activated at each AO position
        # (n_i + f_i, Algorithm 1), ready for the vectorised prefix scan.
        np.add(tree.nexec, tree.fout, out=release)  # reuse row as temp
        request_ao[:] = release[ao.sequence]
        # Release volume on completion: n_i plus the inputs consumed
        # (children outputs, booked by the children's own activations).
        children_fout = np.zeros(n, dtype=np.float64)
        has_parent = tree.parent != NO_PARENT
        np.add.at(children_fout, tree.parent[has_parent], tree.fout[has_parent])
        np.add(tree.nexec, children_fout, out=release)
        self.request_ao = request_ao
        self.request_ao_list: list[float] = request_ao.tolist()
        self.release_list: list[float] = release.tolist()
        self._native_planes = None
        #: Set by ``check_activation_order`` once ``ao`` passed the
        #: topological check, so later runs on this workspace skip it.
        self.ao_topological = False

    def native_planes(self):
        """Contiguous int64/float64 views for the compiled kernels (cached).

        Built lazily from the workspace lists on the first native run of
        this (tree, AO, EO) and reused by every subsequent run — the same
        share-per-workspace discipline as the Python planes.  The planes'
        raw addresses are read once, at construction (see
        :class:`~repro.native.api.NativePlanes`).
        """
        planes = self._native_planes
        if planes is None:
            from ..native.api import NativePlanes  # layering: engine is imported first

            planes = NativePlanes(
                n=self.n,
                parent=np.asarray(self.parent_list, dtype=np.int64),
                ptime=np.asarray(self.ptime_list, dtype=np.float64),
                fout=np.asarray(self.fout_list, dtype=np.float64),
                mem_needed=np.asarray(self.mem_needed_list, dtype=np.float64),
                num_children=np.asarray(self.num_children_list, dtype=np.int64),
                child_offsets=np.asarray(self.child_offsets, dtype=np.int64),
                child_nodes=np.asarray(self.child_nodes, dtype=np.int64),
                leaves=np.asarray(self.leaves_list, dtype=np.int64),
                ao_sequence=np.asarray(self.ao_sequence_list, dtype=np.int64),
                ao_rank=np.asarray(self.ao_rank_list, dtype=np.int64),
                eo_rank=np.asarray(self.eo_rank_list, dtype=np.int64),
                request_ao=np.ascontiguousarray(self.request_ao, dtype=np.float64),
                release=np.asarray(self.release_list, dtype=np.float64),
            )
            self._native_planes = planes
        return planes

    def matches(self, tree: TaskTree, ao: Ordering, eo: Ordering) -> bool:
        """True when this workspace was built for exactly this run's inputs."""
        return self.tree is tree and self.ao is ao and self.eo is eo

    @classmethod
    def from_planes(
        cls,
        tree: TaskTree,
        ao: Ordering,
        eo: Ordering,
        *,
        child_offsets: np.ndarray,
        child_nodes: np.ndarray,
        request_ao: np.ndarray,
        release: np.ndarray,
        ao_rank: "np.ndarray | None" = None,
        eo_rank: "np.ndarray | None" = None,
    ) -> "SimWorkspace":
        """Rebuild a workspace from precomputed (arena-resident) planes.

        The derived planes — the children CSR and the Activation
        request/release block — are adopted instead of recomputed, which is
        what lets shared-memory workers and batch lanes inherit them
        zero-copy from a :class:`~repro.core.tree_store.TreeStore` arena
        carrying workspace plane columns (see :mod:`repro.batch.planes`).
        The planes must have been produced by a workspace built for the same
        (tree, AO, EO); values are adopted verbatim, so the result is
        indistinguishable from ``SimWorkspace(tree, ao, eo)``.
        """
        ws = cls.__new__(cls)
        ws.tree = tree
        ws.ao = ao
        ws.eo = eo
        ws.n = tree.n
        ws.parent_list = tree.parent.tolist()
        ws.ptime_list = tree.ptime.tolist()
        ws.fout_list = tree.fout.tolist()
        ws.mem_needed_list = tree.mem_needed.tolist()
        offsets = np.asarray(child_offsets, dtype=np.int64)
        ws.child_offsets = offsets.tolist()
        ws.child_nodes = np.asarray(child_nodes, dtype=np.int64).tolist()
        ws.num_children_list = np.diff(offsets).tolist()
        ws.leaves_list = tree.leaves().tolist()
        ws.ao_sequence_list = ao.sequence.tolist()
        # Rank planes, when stored, are adopted like the other columns (the
        # orders could re-derive them, but the arena already paid for them).
        ws.ao_rank_list = (
            ao.rank.tolist()
            if ao_rank is None
            else np.asarray(ao_rank, dtype=np.int64).tolist()
        )
        if eo is ao:
            ws.eo_rank_list = ws.ao_rank_list
        elif eo_rank is None:
            ws.eo_rank_list = eo.rank.tolist()
        else:
            ws.eo_rank_list = np.asarray(eo_rank, dtype=np.int64).tolist()
        ws._block = None
        request = np.asarray(request_ao, dtype=np.float64)
        ws.request_ao = request
        ws.request_ao_list = request.tolist()
        ws.release_list = np.asarray(release, dtype=np.float64).tolist()
        ws._native_planes = None
        ws.ao_topological = False
        return ws


def native_twin(kernel_cls: type) -> str | None:
    """Name of the C twin of ``kernel_cls`` in :mod:`repro.native`, or ``None``.

    Only a class that declares ``native_kernel`` itself has one: a subclass
    inherits the attribute, but may change a transition the compiled
    stepper cannot see, so it always runs in Python.
    """
    return vars(kernel_cls).get("native_kernel")


@hot_kernel(note="the event loop (Algorithm 2 skeleton)")
def simulate_kernel(
    kernel,
    num_processors: int,
    starve_init: int | None = None,
    invariant_hook: Callable[[Mapping[str, Any]], None] | None = None,
) -> "NativeOutcome":
    """Run one kernel to completion: the Python twin of :func:`repro.native.simulate`.

    Besides the schedule it returns the collapse diagnostics of
    :mod:`repro.batch.lanes`: ``peak_running`` (the largest concurrency),
    ``blocked`` (a ready task once waited for a processor) and
    ``starve_min``, the smallest concurrency at an instant where the ready
    pool drained while an orphan existed (``starve_init`` if none did,
    ``n + p + 1`` by default).  ``invariant_hook`` receives
    ``kernel.invariant_state()`` once per event instant, after dispatch.
    """
    from ..native.api import NativeOutcome  # layering: native loads lazily

    n = kernel.workspace.n
    ptime = kernel.workspace.ptime_list
    activate, on_started, on_finished = kernel.bind()
    ready = kernel.ready
    start = [math.nan] * n
    finish = [math.nan] * n
    processor = [UNSCHEDULED] * n
    free = list(range(num_processors - 1, -1, -1))  # pop() gives proc 0 first
    events: list[tuple[float, int]] = []
    finished_now: list[int] = []
    clock = 0.0
    finished = 0
    num_events = 1  # the t = 0 instant
    peak_running = 0
    blocked = False
    starve_min = n + num_processors + 1 if starve_init is None else starve_init
    failure: str | None = None
    while True:
        pool = len(ready)
        activate()
        # Ready-pushes of an activate call are exactly the activations of
        # nodes whose children were already done — i.e. consumed orphans.
        kernel.orphans -= len(ready) - pool
        # Dispatch: activated & available tasks to idle processors (EO order).
        if ready:
            if free:
                while free and ready:
                    node = heappop(ready)[1]
                    if on_started is not None:
                        on_started(node)
                    proc = free.pop()
                    start[node] = clock
                    f = clock + ptime[node]
                    finish[node] = f
                    processor[node] = proc
                    heappush(events, (f, node))
                running = len(events)
                if running > peak_running:
                    peak_running = running
                if ready:
                    if not free:
                        blocked = True
                elif kernel.orphans > 0 and running < starve_min:
                    starve_min = running
            else:
                blocked = True
        elif kernel.orphans > 0 and len(events) < starve_min:
            starve_min = len(events)
        if invariant_hook is not None:
            invariant_hook(kernel.invariant_state())
        if not events:
            if finished < n:
                failure = (
                    f"deadlock at t={clock:.6g}: {n - finished} tasks remain but "
                    "none is activated and available under the memory bound"
                    if finished
                    else "no task can be started at t=0: the memory bound is too "
                    "small for the first activations"
                )
            break
        clock = events[0][0]
        finished_now.clear()
        while events and events[0][0] == clock:
            finished_now.append(heappop(events)[1])
        finished += len(finished_now)
        num_events += len(finished_now)
        for node in finished_now:
            free.append(processor[node])
        on_finished(finished_now)
    return NativeOutcome(
        start=np.asarray(start, dtype=np.float64),
        finish=np.asarray(finish, dtype=np.float64),
        processor=np.asarray(processor, dtype=np.int64),
        clock=clock,
        finished=finished,
        num_events=num_events,
        failure=failure,
        extras=kernel.extras(),
        peak_running=peak_running,
        blocked=blocked,
        memory_bound=kernel.memory_bound,
        starve_min=starve_min,
        bound_need=kernel.bound_need,
    )


def result_from_outcome(
    name: str,
    outcome: "NativeOutcome",
    num_processors: int,
    memory_limit: float,
    ao: Ordering,
    eo: Ordering,
    seconds: float,
) -> ScheduleResult:
    """The :class:`ScheduleResult` of one simulated call, ``peak_memory`` left ``nan``."""
    n = outcome.start.size
    completed = outcome.finished == n
    return ScheduleResult(
        scheduler=name,
        tree_size=n,
        num_processors=num_processors,
        memory_limit=memory_limit,
        completed=completed,
        makespan=outcome.clock if completed else math.inf,
        start_times=outcome.start,
        finish_times=outcome.finish,
        processor=outcome.processor,
        peak_memory=math.nan,
        scheduling_seconds=seconds,
        num_events=outcome.num_events,
        activation_order=ao.name,
        execution_order=eo.name,
        failure_reason=outcome.failure,
        extras=dict(outcome.extras),
    )


class EventDrivenScheduler(Scheduler):
    """A dynamic heuristic of the paper: its kernel class, driven by the event loop."""

    #: The heuristic's kernel class (see the module docstring).
    kernel: type

    #: Per-scheduler native override: ``True`` requires the compiled
    #: kernels (raise if unavailable), ``False`` forces pure Python,
    #: ``None`` defers to the ``REPRO_NATIVE`` environment switch.  The
    #: sweep runner copies ``SweepConfig.native`` here; the CLI sets it
    #: from ``--native`` / ``--no-native``.
    native: bool | None = None

    #: Whether a run fills ``peak_memory`` with the resident peak of its
    #: schedule (left ``nan`` otherwise).  The sweep runner's ``run_single``
    #: turns it off per instance, the way it sets :attr:`native`, because
    #: the record's peak comes from the check that validates the schedule
    #: (see ``complete_record``); a direct ``schedule()`` call keeps the
    #: default and gets a filled peak.
    peak_on_run: bool = True

    def _new_kernel(self, workspace: SimWorkspace, memory_limit: float):
        """The state of one Python run (MemBooking adds its dispatch variant)."""
        return self.kernel(workspace, memory_limit)

    def _run(
        self,
        tree: TaskTree,
        num_processors: int,
        memory_limit: float,
        ao: Ordering,
        eo: Ordering,
        *,
        invariant_hook: Callable[[Mapping[str, Any]], None] | None = None,
        workspace: SimWorkspace | None = None,
    ) -> ScheduleResult:
        result = self._simulate(
            tree,
            num_processors,
            memory_limit,
            ao,
            eo,
            invariant_hook=invariant_hook,
            workspace=workspace,
        )
        if self.peak_on_run:
            result.peak_memory = resident_peak(tree, result, self.native)
        return result

    def _simulate(
        self,
        tree: TaskTree,
        num_processors: int,
        memory_limit: float,
        ao: Ordering,
        eo: Ordering,
        *,
        invariant_hook: Callable[[Mapping[str, Any]], None] | None = None,
        workspace: SimWorkspace | None = None,
    ) -> ScheduleResult:
        """One simulation, C or Python, with ``peak_memory`` left ``nan``.

        The compiled stepper cannot call back into Python, so it runs only
        without an invariant hook and for a kernel with a C twin; every
        other run, and AUTO mode without a compiler, goes through
        :func:`simulate_kernel`.  ``native=True`` without a compiler raises
        :class:`repro.native.NativeUnavailableError`.
        """
        from .. import native as native_mod  # layering: native loads lazily

        if workspace is None or not workspace.matches(tree, ao, eo):
            workspace = SimWorkspace(tree, ao, eo)
        twin = None if invariant_hook is not None else native_twin(self.kernel)
        kernels = None if twin is None else native_mod.native_kernels(self.native)
        if kernels is None:
            tic = time.perf_counter()
            outcome = simulate_kernel(
                self._new_kernel(workspace, memory_limit),
                num_processors,
                invariant_hook=invariant_hook,
            )
        else:
            planes = workspace.native_planes()
            tic = time.perf_counter()
            outcome = native_mod.simulate(
                kernels,
                twin,
                planes,
                num_processors,
                memory_limit,
                dispatch_to_candidates=getattr(self, "dispatch_to_candidates", True),
            )
        seconds = time.perf_counter() - tic
        return result_from_outcome(
            self.name, outcome, num_processors, memory_limit, ao, eo, seconds
        )
