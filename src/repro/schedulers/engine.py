"""Array-native event-driven simulation engine for the dynamic heuristics.

All three heuristics of the paper (Activation, MemBookingRedTree and
MemBooking) follow the same outer loop (Algorithms 1 and 2): wait for an
event (``t = 0`` or a task completion), update the heuristic's bookkeeping,
activate new tasks if memory allows, then greedily assign activated & ready
tasks to idle processors following the execution order ``EO``.

:class:`EventDrivenScheduler` implements that outer loop once.  Since the
array-engine rewrite the hot path is organised around **flat per-node state**
rather than per-node Python objects:

* the event queue holds primitive ``(finish_time, node)`` pairs (ties break
  by node index, exactly as the historical ``(time, node, proc)`` entries
  did — node indices are unique); the processor of a completing task is read
  from a flat per-node list;
* per-task results (start/finish times, processor assignment) accumulate in
  plain Python lists and are materialised as NumPy arrays once, at the end
  of the run;
* all completions at one instant are handed to the heuristic as **one
  batch** (:meth:`EventDrivenScheduler._on_tasks_finished`; the default
  implementation loops over the historical per-node
  :meth:`~EventDrivenScheduler._on_task_finished` hook, so subclasses keep
  working unchanged);
* decision-time measurement is **batched per event instant**: a single
  ``perf_counter`` pair brackets the completion hooks, the activation scan
  and the dispatch decisions of one instant, instead of two timer calls per
  hook invocation.  On large sweeps the historical per-hook pairs spent a
  measurable share of the "scheduling time" of Figures 5, 6 and 13 inside
  ``perf_counter`` itself;
* the static per-tree planes every run re-derived (children CSR, AO/EO
  ranks, activation requests along the AO, per-node release volumes) are
  computed once per (tree, AO, EO) in a :class:`SimWorkspace` and shared by
  every run on that tree — the experiment harness builds one per
  :class:`~repro.experiments.runner.InstanceContext`, so the 60+ simulations
  a sweep runs on one tree pay for the conversion exactly once.

The heuristic-specific parts remain four hooks:

``_setup()``
    initialise the bookkeeping (called once, before the ``t = 0`` event);
``_on_tasks_finished(nodes)`` / ``_on_task_finished(node)``
    tasks just completed: release / re-dispatch their memory;
``_activate()``
    activate candidate tasks while memory allows (``UpdateCAND-ACT`` /
    the activation loop of Algorithm 1);
``_pop_ready_task()``
    return the highest-EO-priority task that is activated and whose children
    have all completed, or ``None`` when no such task exists.  Heuristics
    that keep their ready pool in a :class:`~repro.schedulers.base.ReadyQueue`
    simply assign it to :attr:`EventDrivenScheduler.ready_queue` during
    ``_setup()`` and inherit the default implementation; the engine also uses
    the queue's O(1) emptiness check to skip idle pops entirely.

Schedule results are **bit-identical** to the pre-array engine preserved in
:mod:`repro.schedulers.reference` (event order, tie-breaking, deadlock
semantics and floating-point bookkeeping — pinned by
``tests/test_array_engine_parity.py``); only the wall-clock
``scheduling_seconds`` measurements differ.

Deadlock handling: if at some event no task is running and the hooks cannot
produce a ready task while unprocessed tasks remain, the heuristic cannot
complete the tree under this memory bound.  The engine then returns a result
with ``completed=False`` instead of raising, because "this instance cannot be
scheduled" is a legitimate experimental outcome (Section 7.4 reports exactly
that for MemBookingRedTree).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..analysis.registry import hot_kernel
from ..core.task_tree import NO_PARENT, TaskTree
from ..orders import Ordering
from .base import UNSCHEDULED, ReadyQueue, ScheduleResult, Scheduler
from .validation import memory_profile  # noqa: F401  (tracers patch it by module)
from .validation import resident_peak

__all__ = ["EventDrivenScheduler", "SimWorkspace"]


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
    mutable simulation state (per-run state lives in the scheduler), and is
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


class EventDrivenScheduler(Scheduler):
    """Template-method implementation of the paper's dynamic schedulers."""

    #: EO-rank-keyed pool of tasks that may start right now.  Subclasses set
    #: it in ``_setup()``; the engine uses its O(1) emptiness test to avoid
    #: idle pops, and the default ``_pop_ready_task`` pops from it.
    ready_queue: ReadyQueue | None = None

    #: Name of this heuristic's compiled twin in :mod:`repro.native`
    #: (``"activation"`` / ``"membooking"``), or ``None`` when the scalar
    #: Python kernels are the only implementation.  The native stepper is
    #: bit-identical by contract (pinned by the three-way fuzz), so classes
    #: that set it never see a behavioural difference — only speed.
    native_kernel: str | None = None

    #: Per-scheduler native override: ``True`` requires the compiled
    #: kernels (raise if unavailable), ``False`` forces pure Python,
    #: ``None`` defers to the ``REPRO_NATIVE`` environment switch.  The
    #: sweep runner copies ``SweepConfig.native`` here; the CLI sets it
    #: from ``--native`` / ``--no-native``.
    native: bool | None = None

    #: The per-event hooks the compiled stepper replaces wholesale.  The
    #: C twin cannot call back into Python per event, so a subclass that
    #: overrides any of them (relative to the class that declared its
    #: ``native_kernel``) opts out of the native fast path automatically
    #: and runs through the Python kernels — overridden behaviour is never
    #: silently bypassed.  A subclass that re-declares ``native_kernel``
    #: itself re-asserts the contract for its own hook set.
    _NATIVE_REPLACED_HOOKS: tuple[str, ...] = (
        "_setup",
        "_activate",
        "_pop_ready_task",
        "_on_task_started",
        "_on_task_finished",
        "_on_tasks_finished",
    )

    #: Fast-path ready pool: a plain ``heapq`` list of ``(EO rank, node)``
    #: pairs.  An array kernel that never removes arbitrary entries assigns
    #: ``self.ready_heap = []`` in ``_setup()`` (instead of a
    #: :class:`~repro.schedulers.base.ReadyQueue`) and pushes pairs
    #: directly; the engine then pops the heap itself — no wrapper calls, no
    #: liveness set.  Ranks are permutations, so extraction order is
    #: identical to the queue's.  When set, it takes precedence over
    #: :attr:`ready_queue` and the ``_pop_ready_task`` hook.
    ready_heap: list[tuple[int, int]] | None = None

    #: Whether a run fills ``peak_memory`` with the resident peak of its
    #: schedule (left ``nan`` otherwise).  The sweep runner's ``run_single``
    #: turns it off per instance, the way it sets :attr:`native`, because
    #: the record's peak comes from the check that validates the schedule
    #: (see ``complete_record``); a direct ``schedule()`` call keeps the
    #: default and gets a filled peak.
    peak_on_run: bool = True

    # ------------------------------------------------------------------ #
    # hooks to be provided by subclasses
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _on_task_finished(self, node: int) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _on_tasks_finished(self, nodes: Sequence[int]) -> None:
        """Batch hook: every task completing at the current instant.

        The engine always delivers completions through this hook, one call
        per event instant, in ascending node order (the historical per-node
        delivery order).  The default forwards to ``_on_task_finished`` so
        per-node subclasses keep working; array kernels override the batch
        directly.
        """
        on_finished = self._on_task_finished
        for node in nodes:
            on_finished(node)

    def _activate(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _pop_ready_task(self) -> int | None:
        """Pop the best ready task from :attr:`ready_queue` (default hook)."""
        queue = self.ready_queue
        if queue is None:
            # Fail loud, as the abstract hook did before the default existed:
            # a subclass must either register a queue or override this hook.
            raise NotImplementedError(
                f"{type(self).__name__}._setup() must assign self.ready_queue "
                "or the class must override _pop_ready_task()"
            )
        return queue.pop()

    def _on_task_started(self, node: int) -> None:
        """Optional hook called when a task is placed on a processor."""

    def _extra_results(self) -> dict[str, Any]:
        """Optional per-heuristic diagnostics merged into ``ScheduleResult.extras``."""
        return {}

    def _invariant_state(self) -> dict[str, Any]:
        """State snapshot passed to the invariant hook after every event."""
        return {}

    # ------------------------------------------------------------------ #
    # engine state (initialised in _run, available to the hooks)
    # ------------------------------------------------------------------ #
    tree: TaskTree
    num_processors: int
    memory_limit: float
    ao: Ordering
    eo: Ordering
    #: Static planes of the current run (set by the engine before ``_setup``).
    workspace: SimWorkspace | None = None

    def _reset_engine_state(self) -> None:
        """Drop the per-run engine references once a simulation is over.

        Scheduler objects are routinely reused across instances (the sweep
        runner builds one per record, but the CLI, the ablations and user
        code call ``schedule`` repeatedly on one object).  Every run fully
        re-initialises its bookkeeping in ``_setup``, so reuse was already
        *correct*; clearing the references also stops a finished scheduler
        from keeping the last tree, its orders and the ready queue alive —
        which matters because the experiment harness memoises per-tree data
        behind weak references and relies on trees being collectable.
        """
        self.tree = None  # type: ignore[assignment]
        self.ao = None  # type: ignore[assignment]
        self.eo = None  # type: ignore[assignment]
        self.ready_queue = None
        self.ready_heap = None
        self.workspace = None

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
        """One simulation, native or Python, with ``peak_memory`` left ``nan``."""
        try:
            # Native fast path: the compiled stepper cannot call back into
            # Python per event, so it only replaces runs that need no
            # invariant hook and whose engine hooks are the stock ones;
            # everything else (and AUTO mode without a compiler) falls
            # through to the Python kernels.
            result = None
            if invariant_hook is None and self._native_hooks_intact():
                result = self._run_native(
                    tree, num_processors, memory_limit, ao, eo, workspace=workspace
                )
            if result is None:
                result = self._run_simulation(
                    tree,
                    num_processors,
                    memory_limit,
                    ao,
                    eo,
                    invariant_hook=invariant_hook,
                    workspace=workspace,
                )
            return result
        finally:
            # Clear the per-run references even when a hook raises, so a
            # long-lived scheduler object never pins the last tree.
            self._reset_engine_state()

    def _native_hooks_intact(self) -> bool:
        """True when this instance may take the compiled fast path.

        The native kernel is keyed to the class that declared
        ``native_kernel``: every hook in :attr:`_NATIVE_REPLACED_HOOKS`
        must still be the implementation that class sees, otherwise a
        subclass's customised hook (extra bookkeeping, instrumentation,
        deliberate faults in tests) would be silently skipped per event.
        """
        cls = type(self)
        for owner in cls.__mro__:
            if "native_kernel" in vars(owner):
                break
        else:  # pragma: no cover - the engine base declares the default
            return False
        if owner.native_kernel is None:
            return False
        for name in self._NATIVE_REPLACED_HOOKS:
            if getattr(cls, name, None) is not getattr(owner, name, None):
                return False
        return True

    def _run_native(
        self,
        tree: TaskTree,
        num_processors: int,
        memory_limit: float,
        ao: Ordering,
        eo: Ordering,
        *,
        workspace: SimWorkspace | None = None,
    ) -> ScheduleResult | None:
        """Run the whole simulation through the compiled C stepper.

        Returns ``None`` when native kernels are off or unavailable (the
        caller falls back to :meth:`_run_simulation`); raises
        :class:`repro.native.NativeUnavailableError` when they were
        explicitly required.  The returned schedule is byte-identical to
        the Python kernels' — same arrays, same extras, same failure
        strings — with only ``scheduling_seconds`` free to differ.
        """
        from .. import native as native_mod

        kernels = native_mod.native_kernels(self.native)
        if kernels is None:
            return None
        if workspace is None or not workspace.matches(tree, ao, eo):
            workspace = SimWorkspace(tree, ao, eo)
        self.workspace = workspace
        planes = workspace.native_planes()
        tic = time.perf_counter()
        outcome = native_mod.simulate(
            kernels,
            self.native_kernel,  # type: ignore[arg-type]  # guarded by caller
            planes,
            num_processors,
            memory_limit,
            dispatch_to_candidates=getattr(self, "dispatch_to_candidates", True),
        )
        seconds = time.perf_counter() - tic
        n = tree.n
        completed = outcome.finished == n
        result = ScheduleResult(
            scheduler=self.name,
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
            extras=outcome.extras,
        )
        return result

    @hot_kernel(note="scalar event loop (Algorithm 2 skeleton)")
    def _run_simulation(
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
        self.tree = tree
        self.num_processors = num_processors
        self.memory_limit = memory_limit
        self.ao = ao
        self.eo = eo
        if workspace is None or not workspace.matches(tree, ao, eo):
            workspace = SimWorkspace(tree, ao, eo)
        self.workspace = workspace

        n = tree.n
        nan = math.nan
        # Flat per-task result state; materialised as arrays once, at the end.
        start_times: list[float] = [nan] * n
        finish_times: list[float] = [nan] * n
        processor: list[int] = [UNSCHEDULED] * n
        proc_of = processor  # completing tasks read their processor back here

        free_processors = list(range(num_processors - 1, -1, -1))  # pop() gives proc 0 first
        running = 0
        finished_count = 0
        clock = 0.0
        num_events = 0
        decision_seconds = 0.0
        failure: str | None = None

        # Completion events as primitive (finish_time, node) pairs: node
        # indices are unique, so ties at one instant break by node index —
        # the same order the historical (time, node, proc) entries produced.
        event_queue: list[tuple[float, int]] = []

        heappush = heapq.heappush
        heappop = heapq.heappop
        perf_counter = time.perf_counter  # hot loop: avoid attribute lookups
        ptime = workspace.ptime_list

        self.ready_queue = None  # reset any pool left over from a previous run
        self.ready_heap = None
        tic = perf_counter()
        self._setup()
        decision_seconds += perf_counter() - tic

        # Hook resolution, once per run: skip the no-op start hook entirely
        # when a subclass did not override it, and pop the fast-path ready
        # heap directly when the kernel registered one.
        cls = type(self)
        on_started = (
            None
            if cls._on_task_started is EventDrivenScheduler._on_task_started
            else self._on_task_started
        )
        on_finished_batch = self._on_tasks_finished
        activate = self._activate
        ready_heap = self.ready_heap

        if ready_heap is not None:

            # kernel-ok: closure (event-instant scalars via nonlocal)
            def dispatch_ready() -> None:
                """Assign activated & available tasks to idle processors (EO order).

                Fast path: the kernel's ready pool is a plain (rank, node)
                heap the engine pops itself.  Runs inside the caller's timed
                region (one perf_counter pair per event instant).
                """
                nonlocal running
                while free_processors and ready_heap:
                    node = heappop(ready_heap)[1]
                    if on_started is not None:
                        on_started(node)
                    proc = free_processors.pop()
                    start_times[node] = clock
                    finish = clock + ptime[node]
                    finish_times[node] = finish
                    proc_of[node] = proc
                    running += 1
                    heappush(event_queue, (finish, node))

        else:

            # kernel-ok: closure (event-instant scalars via nonlocal)
            def dispatch_ready() -> None:
                """Hook-based dispatch (ReadyQueue / ``_pop_ready_task``)."""
                nonlocal running
                ready = self.ready_queue
                pop_ready = self._pop_ready_task
                while free_processors:
                    # When the heuristic exposes its ready pool and the pool
                    # is empty there is no decision to take.
                    if ready is not None and not ready:
                        break
                    node = pop_ready()
                    if node is None:
                        break
                    if on_started is not None:
                        on_started(node)
                    proc = free_processors.pop()
                    start_times[node] = clock
                    finish = clock + ptime[node]
                    finish_times[node] = finish
                    proc_of[node] = proc
                    running += 1
                    heappush(event_queue, (finish, node))

        # --- t = 0 event ---------------------------------------------------
        tic = perf_counter()
        activate()
        dispatch_ready()
        decision_seconds += perf_counter() - tic
        num_events += 1
        if invariant_hook is not None:
            invariant_hook(self._invariant_state())

        if running == 0 and finished_count < n:
            failure = (
                "no task can be started at t=0: the memory bound is too small "
                "for the first activations"
            )

        # --- main loop ------------------------------------------------------
        finished_now: list[int] = []
        while failure is None and event_queue:
            clock = event_queue[0][0]
            # Process every completion at this instant before re-activating,
            # as in Algorithm 2 ("foreach just finished node j").
            finished_now.clear()
            append_finished = finished_now.append
            while event_queue and event_queue[0][0] == clock:
                append_finished(heappop(event_queue)[1])
            completed_now = len(finished_now)
            running -= completed_now
            finished_count += completed_now
            num_events += completed_now
            for node in finished_now:
                free_processors.append(proc_of[node])
            tic = perf_counter()
            on_finished_batch(finished_now)
            activate()
            dispatch_ready()
            decision_seconds += perf_counter() - tic
            if invariant_hook is not None:
                invariant_hook(self._invariant_state())
            if running == 0 and finished_count < n:
                failure = (
                    f"deadlock at t={clock:.6g}: {n - finished_count} tasks remain but "
                    "none is activated and available under the memory bound"
                )

        completed = finished_count == n
        makespan = clock if completed else math.inf
        result = ScheduleResult(
            scheduler=self.name,
            tree_size=n,
            num_processors=num_processors,
            memory_limit=memory_limit,
            completed=completed,
            makespan=makespan,
            start_times=np.asarray(start_times, dtype=np.float64),
            finish_times=np.asarray(finish_times, dtype=np.float64),
            processor=np.asarray(processor, dtype=np.int64),
            peak_memory=math.nan,
            scheduling_seconds=decision_seconds,
            num_events=num_events,
            activation_order=ao.name,
            execution_order=eo.name,
            failure_reason=failure,
            extras=self._extra_results(),
        )
        return result
