"""Lane-batched simulation stepper: B instances of one tree at once.

A *lane* is one (processors, memory limit) instance of a fixed
(tree, AO, EO, heuristic).  The experiment grids of the paper run ~60 such
instances per tree; :func:`simulate_lanes` resolves whole groups of them
per call instead of one full event loop per instance:

* per-node state is stacked one row per lane — activation flags, children
  counters, the MemBooking ``Booked``/``BookedBySubtree`` planes and state
  bytes — allocated once per batch as C-level copies of shared templates
  (the scalar path re-derives them per instance).  The rows are Python
  containers, the same list-over-ndarray trade the PR 4 scalar kernels
  documented: at sweep-grid batch widths (B ~ 20-40) per-element ndarray
  access and ``ufunc.at`` scatters measurably lose to CPython list
  indexing, so NumPy is reserved for the places it wins;
* the completion *events* of a stepped batch are one ``[B, p_max]``
  **processor slot plane**: slot ``s`` of lane ``l`` holds the finish time
  of the task running on processor ``s``.  Wide batches advance in
  lock-step, one **event wavefront** per step — a vectorised row-min
  yields every lane's next instant, one compare yields every completion —
  while narrow batches (what the collapse rounds usually leave; below
  :data:`_WAVEFRONT_MIN_LANES`) drain lane by lane over a plain event
  heap, which beats the wavefront's per-step NumPy overhead there.  Both
  paths deliver completions in the exact order of the scalar engine;
* the heuristic state transitions are the **shared kernel definitions**
  factored out of the scalar schedulers
  (:func:`repro.schedulers.activation.run_activation_scan`,
  :func:`repro.schedulers.membooking.dispatch_memory`,
  :func:`repro.schedulers.membooking.run_membooking_activation`), so the
  lane kernels cannot drift from the per-instance kernels: both run the
  identical ledger folds, tolerances and clamps, and the produced schedules
  are **bit-identical** to the scalar
  :class:`~repro.schedulers.activation.ActivationScheduler` /
  :class:`~repro.schedulers.membooking.MemBookingScheduler` (pinned by
  ``tests/test_batch_parity.py``, which also cross-checks the frozen
  :mod:`repro.schedulers.reference` generation).

Lane collapse
-------------
The throughput of a batch comes as much from **provable lane collapse** as
from the vectorised stepping: many instances of a grid are exact replays of
one another, and the engine detects that instead of re-simulating.

*Saturation collapse* (the processor axis).
    A lane that was **never processor-blocked** — its dispatch never left a
    ready task waiting — produced the unconstrained (``p = infinity``)
    schedule, and its maximum concurrency ``R*`` is the whole demand of
    that schedule.  Any lane with the same memory limit and ``p >= R*``
    provably replays it, bit for bit, down to the processor assignment
    (the free-processor stack of the engine never reaches ids ``>= R*``).
    On the paper's processor-sweep grids (``p in {2,4,8,16,32}``) the
    upper half of the axis collapses onto one simulation per memory
    factor as soon as the tree's parallelism saturates.

*Memory-slack collapse* (the memory-factor axis).
    A lane whose activation was **never memory-bound** — no activation
    attempt ever stopped because the budget ran out — admitted every
    candidate it ever saw, which is exactly what any lane with the same
    ``p`` and a *larger* limit would have done.  Those lanes replay it
    identically.

*Starvation collapse* (the memory-factor axis, ``EO == AO``).
    Both kernels activate in ascending AO rank, so when the execution
    priorities *are* the activation priorities, anything a larger budget
    could additionally activate ranks **after every task the smaller
    budget had ready** — extra memory can only change a dispatch at an
    instant where the ready pool drained, a processor sat idle, *and* an
    unactivated task with all children finished existed (an *orphan*).
    The engine tracks the minimum concurrency over exactly those instants
    (``starve_min``); any same-``p`` lane with a larger limit replays a
    lane with ``starve_min >= p`` schedule-for-schedule.  (Its booked
    trajectory differs — more admitted earlier — so such clones share the
    donor's schedule and records but not its booked-memory diagnostics,
    and they may not donate through the saturation rule, whose flags
    describe the donor's ready-pool trajectory.)

*Blocked-replay collapse* (the memory ladder of processor-blocked lanes).
    The rules above never touch the memory ladder of a lane that is
    processor-*limited*: such a lane is memory-bound at some instants
    (no slack), yet its stalls happen while a processor idles (no
    starvation certificate).  The kernels therefore record, at every
    memory-bound activation stop, the ledger level that stop would have
    needed to proceed — ``booked + next request`` for Activation,
    ``MBooked + missing booking`` for MemBooking — and ``bound_need`` is
    the minimum over the run.  A follower whose own (tolerance-inclusive)
    threshold still sits *below* ``bound_need`` is refused the exact same
    activations at the exact same instants: its entire trajectory
    (activation, ready pool, booked ledger, dispatch) replays the donor's
    verbatim, no ``EO == AO`` assumption needed.  Unlike starvation
    clones these replays are exact, so every diagnostic flag stays valid
    and they donate through every rule; the same certificate composes
    with the saturation argument (never-blocked donor, ``p_f >= R*``) to
    resolve followers that differ from the donor in *both* axes.

:func:`simulate_lanes` schedules lanes in **rounds**: each round runs the
largest-``p`` unresolved lane of each limit group (thinned to the smallest
limit per ``p`` — the likeliest future clones are deferred) as one batch,
then applies the collapse rules — plus the degenerate exact-duplicate
``(p, limit)`` case; a lane whose activation completes entirely at
``t = 0`` is simply a never-memory-bound lane, so the slack rule covers it
— to a fixed point, with resolved clones acting as donors at their own
``(p, limit)``.  Clones inherit the representative's schedule arrays (so
its peak memory); only their record-level fields (memory limit and ratios
derived from it) differ, which the caller derives per lane.

Timing: decision time is measured per step (one ``perf_counter`` pair
around the whole wavefront) and shared equally among the lanes that had
events in the step.  Wall-clock fields are the only ones allowed to differ
from the serial backend.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Sequence

import numpy as np

from ..core.task_tree import TaskTree
from ..orders import Ordering
from ..analysis.registry import hot_kernel, plane_mutator
from ..schedulers.activation import ActivationScheduler, run_activation_scan
from ..schedulers.base import (
    UNSCHEDULED,
    ScheduleResult,
    SchedulingError,
    check_activation_order,
)
from ..schedulers.engine import SimWorkspace
from ..schedulers.membooking import (
    ACT,
    CAND,
    FN,
    RUN,
    _UNSET,
    MemBookingScheduler,
    dispatch_memory,
    run_membooking_activation,
)
from ..schedulers.validation import memory_profile  # noqa: F401  (tracers patch it by module)

__all__ = [
    "ActivationLaneKernel",
    "MemBookingLaneKernel",
    "LANE_KERNELS",
    "batchable_scheduler",
    "simulate_lanes",
]


class ActivationLaneKernel:
    """Batched per-lane state of the Activation heuristic (Algorithm 1).

    Per-node state is stacked one row per lane — activation flags as
    ``bytearray`` rows, children counters as flat list rows, the global
    ledger as per-lane Python floats — exactly the containers of the scalar
    kernel, whose ``UpdateCAND-ACT`` fold is shared verbatim through
    :func:`~repro.schedulers.activation.run_activation_scan`.  (An earlier
    revision kept the flags/counters as ``[B, n]`` ndarrays and scattered
    completions with ``np.ufunc.at`` across lanes; at the batch widths a
    sweep grid produces, B ~ 20-40, the per-call ufunc overhead measurably
    lost to CPython list indexing — the same list-over-ndarray trade the
    PR 4 scalar kernels documented — so the stacked rows are Python
    containers and NumPy is reserved for the engine's ``[B, p]`` slot
    planes, where the vectorised row-min genuinely wins.)
    """

    name = "Activation"
    scheduler_class = ActivationScheduler
    #: No per-start bookkeeping (mirrors the scalar kernel's absent hook).
    on_started = None

    def __init__(self, workspace: SimWorkspace, limits: Sequence[float]) -> None:
        ws = workspace
        n = self.n = ws.n
        B = self.B = len(limits)
        self._req_list = ws.request_ao_list
        self._req_ao = ws.request_ao
        self._ao_seq = ws.ao_sequence_list
        self._eo_rank = ws.eo_rank_list
        self._release = ws.release_list
        self._parent = ws.parent_list
        # Inlined MemoryLedger, one scalar triple per lane (limits differ).
        self._limits = [float(m) for m in limits]
        self._tol = [1e-9 * max(1.0, m) for m in self._limits]
        self._threshold = [m + t for m, t in zip(self._limits, self._tol)]
        self._booked = [0.0] * B
        self._peak = [0.0] * B
        self._next = [0] * B
        #: Memory-slack collapse flag: True once an activation attempt was
        #: stopped by the budget (the lane is "memory-bound").
        self.memory_bound = [False] * B
        #: Blocked-replay certificate: the minimum over every memory-bound
        #: stop of the budget (``booked + next request``) that stop would
        #: have needed to proceed (``inf`` while never bound).
        self.bound_need = [math.inf] * B
        # Stacked per-lane state rows (C-level copies of one template).
        self._activated = [bytearray(n) for _ in range(B)]
        counts = ws.num_children_list
        self._ch_not_fin = [counts.copy() for _ in range(B)]
        self.ready: list[list[tuple[int, int]]] = [[] for _ in range(B)]
        #: Unactivated tasks whose children have all finished: what a lane
        #: with a larger budget *could* have made ready right now.  Leaves
        #: qualify from the start; completions add nodes (the not-activated
        #: branch of ``on_finished``), activation removes them (the engine
        #: counts the ready-pushes of each ``activate`` call).
        self.orphans = [len(ws.leaves_list)] * B

    @hot_kernel
    def activate(self, lane: int) -> None:
        pos = self._next[lane]
        n = self.n
        if pos >= n:
            return
        booked = self._booked[lane]
        threshold = self._threshold[lane]
        req_list = self._req_list
        need = booked + req_list[pos]
        if need > threshold:
            self.memory_bound[lane] = True
            if need < self.bound_need[lane]:
                self.bound_need[lane] = need
            return
        pos, booked, peak = run_activation_scan(
            pos,
            n,
            booked,
            self._peak[lane],
            threshold,
            req_list,
            self._req_ao,
            self._ao_seq,
            self._activated[lane],
            self._ch_not_fin[lane],
            self._eo_rank,
            self.ready[lane],
        )
        if pos < n:
            self.memory_bound[lane] = True  # the scan stopped on the budget
            need = booked + req_list[pos]
            if need < self.bound_need[lane]:
                self.bound_need[lane] = need
        self._next[lane] = pos
        self._booked[lane] = booked
        self._peak[lane] = peak

    @hot_kernel
    def on_finished(self, lane_list: list[int], node_list: list[int]) -> None:
        # Sequential per lane in ascending node order — the pairs arrive
        # (lane-major, node ascending), exactly the delivery order of the
        # scalar engine's completion batch; the body is the scalar kernel's
        # ``_on_tasks_finished`` with the lane's rows in place of ``self``.
        booked = self._booked
        release = self._release
        tol = self._tol
        parent = self._parent
        eo_rank = self._eo_rank
        for lane, node in zip(lane_list, node_list):
            b = booked[lane] - release[node]
            if b < 0.0:
                if b < -tol[lane]:
                    raise RuntimeError(
                        f"released more memory than was booked (booked={b:.6g})"
                    )
                b = 0.0
            booked[lane] = b
            p = parent[node]
            if p >= 0:
                ch_not_fin = self._ch_not_fin[lane]
                ch_not_fin[p] -= 1
                if ch_not_fin[p] == 0:
                    if self._activated[lane][p]:
                        heappush(self.ready[lane], (eo_rank[p], p))
                    else:
                        self.orphans[lane] += 1

    @hot_kernel
    def bind_lane(self, lane: int):
        """Single-lane fast path: ``(activate, on_finished)`` closures.

        The per-lane drain loop of the engine calls the kernel once or twice
        per event instant; binding the lane's state rows as closure defaults
        removes the attribute and argument traffic of the generic methods
        while running the exact same transitions.
        """
        memory_bound = self.memory_bound
        bound_need = self.bound_need
        next_list = self._next
        booked_list = self._booked
        peak_list = self._peak

        # kernel-ok: closure (lane scalars live in the enclosing lists)
        def activate(
            n=self.n,
            lane=lane,
            threshold=self._threshold[lane],
            req_list=self._req_list,
            req_ao=self._req_ao,
            ao_seq=self._ao_seq,
            activated=self._activated[lane],
            ch_not_fin=self._ch_not_fin[lane],
            eo_rank=self._eo_rank,
            ready=self.ready[lane],
            scan=run_activation_scan,
        ):
            pos = next_list[lane]
            if pos >= n:
                return
            booked = booked_list[lane]
            need = booked + req_list[pos]
            if need > threshold:
                memory_bound[lane] = True
                if need < bound_need[lane]:
                    bound_need[lane] = need
                return
            pos, booked, peak = scan(
                pos, n, booked, peak_list[lane], threshold, req_list, req_ao,
                ao_seq, activated, ch_not_fin, eo_rank, ready,
            )
            if pos < n:
                memory_bound[lane] = True
                need = booked + req_list[pos]
                if need < bound_need[lane]:
                    bound_need[lane] = need
            next_list[lane] = pos
            booked_list[lane] = booked
            peak_list[lane] = peak

        orphans = self.orphans

        # kernel-ok: closure (ledger scalar written back to the lane list)
        def on_finished(
            nodes,
            lane=lane,
            release=self._release,
            neg_tol=-self._tol[lane],
            parent=self._parent,
            activated=self._activated[lane],
            ch_not_fin=self._ch_not_fin[lane],
            eo_rank=self._eo_rank,
            ready=self.ready[lane],
        ):
            booked = booked_list[lane]
            for node in nodes:
                booked -= release[node]
                if booked < 0.0:
                    if booked < neg_tol:
                        raise RuntimeError(
                            f"released more memory than was booked (booked={booked:.6g})"
                        )
                    booked = 0.0
                p = parent[node]
                if p >= 0:
                    ch_not_fin[p] -= 1
                    if ch_not_fin[p] == 0:
                        if activated[p]:
                            heappush(ready, (eo_rank[p], p))
                        else:
                            orphans[lane] += 1
            booked_list[lane] = booked

        return activate, on_finished

    def extras(self, lane: int) -> dict:
        return {
            "peak_booked_memory": self._peak[lane],
            "activated": self._next[lane],
        }


def _noop_remove(node: int) -> None:
    """Lazy candidate removal (the state flip invalidates the heap entry)."""


class MemBookingLaneKernel:
    """Batched per-lane state of MemBooking (Section 4, optimised structures).

    The booking walks (ALAP dispatch along ancestors, lazy subtree sums) are
    inherently sequential per lane, so the ``Booked``/``BookedBySubtree``
    planes and the state bytes live as per-lane flat lists — the same
    list-over-ndarray trade the PR 4 scalar kernels made — and every
    transition goes through the shared
    :func:`~repro.schedulers.membooking.dispatch_memory` /
    :func:`~repro.schedulers.membooking.run_membooking_activation`
    definitions.  The cross-lane wins are the engine's (slot-plane events,
    shared step overhead) plus lane collapse.
    """

    name = "MemBooking"
    scheduler_class = MemBookingScheduler

    @plane_mutator(note="builds the per-lane candidate-structure closures")
    def __init__(self, workspace: SimWorkspace, limits: Sequence[float]) -> None:
        ws = workspace
        n = self.n = ws.n
        B = self.B = len(limits)
        self._parent = ws.parent_list
        self._fout = ws.fout_list
        self._mem_needed = ws.mem_needed_list
        self._offsets = ws.child_offsets
        self._child_nodes = ws.child_nodes
        self._ao_rank = ws.ao_rank_list
        self._eo_rank = ws.eo_rank_list
        self._limits = [float(m) for m in limits]
        self._tol = [1e-9 * max(1.0, m) for m in self._limits]
        self._threshold = [m + t for m, t in zip(self._limits, self._tol)]
        self._mbooked = [0.0] * B
        self._peak = [0.0] * B
        self.memory_bound = [False] * B
        #: Blocked-replay certificate (see ActivationLaneKernel): minimum
        #: ledger level a budget-blocked candidate would have required.
        self.bound_need = [math.inf] * B
        self._booked = [[0.0] * n for _ in range(B)]
        self._bbs = [[_UNSET] * n for _ in range(B)]
        # The candidate heap after the leaf setup is lane-independent:
        # build it once, C-copy per lane (the scalar kernel re-pushes every
        # leaf per run).
        state0 = bytearray(n)
        cand0: list[tuple[int, int]] = []
        ao_rank = self._ao_rank
        for leaf in ws.leaves_list:
            state0[leaf] = CAND
            heappush(cand0, (ao_rank[leaf], leaf))
        self._state = [bytearray(state0) for _ in range(B)]
        self._cand = [cand0.copy() for _ in range(B)]
        self._ch_not_act = [ws.num_children_list.copy() for _ in range(B)]
        self._ch_not_fin = [ws.num_children_list.copy() for _ in range(B)]
        self.ready: list[list[tuple[int, int]]] = [[] for _ in range(B)]
        #: Not-yet-ACT tasks with every child finished (see ActivationLaneKernel).
        self.orphans = [len(ws.leaves_list)] * B
        # Per-lane candidate-structure closures (bound once, not per call).
        self._peeks = []
        self._makes = []
        self._marks = []
        eo_rank = self._eo_rank
        for lane in range(B):
            heap = self._cand[lane]
            state = self._state[lane]
            ready = self.ready[lane]

            def peek(heap=heap, state=state):
                while heap:
                    node = heap[0][1]
                    if state[node] == CAND:
                        return node
                    heappop(heap)  # stale entry of an already-activated node
                return None

            def make(node, heap=heap, state=state, rank=ao_rank):
                state[node] = CAND
                heappush(heap, (rank[node], node))

            def mark(node, ready=ready, rank=eo_rank):
                heappush(ready, (rank[node], node))

            self._peeks.append(peek)
            self._makes.append(make)
            self._marks.append(mark)

    @hot_kernel
    def activate(self, lane: int) -> None:
        mbooked, peak, _, bound = run_membooking_activation(
            self._peeks[lane],
            _noop_remove,
            self._makes[lane],
            self._marks[lane],
            self._booked[lane],
            self._bbs[lane],
            self._state[lane],
            self._parent,
            self._mem_needed,
            self._offsets,
            self._child_nodes,
            self._ch_not_act[lane],
            self._ch_not_fin[lane],
            self._mbooked[lane],
            self._threshold[lane],
            self._peak[lane],
            True,  # the Section 5.1 default, as in MemBookingScheduler
        )
        self._mbooked[lane] = mbooked
        self._peak[lane] = peak
        if bound:
            self.memory_bound[lane] = True
            if bound < self.bound_need[lane]:
                self.bound_need[lane] = bound

    @hot_kernel
    def on_started(self, lane: int, node: int) -> None:
        self._state[lane][node] = RUN

    @hot_kernel
    def on_finished(self, lane_list: list[int], node_list: list[int]) -> None:
        parent = self._parent
        eo_rank = self._eo_rank
        for lane, node in zip(lane_list, node_list):
            state = self._state[lane]
            state[node] = FN
            self._mbooked[lane], self._peak[lane] = dispatch_memory(
                node,
                self._booked[lane],
                self._bbs[lane],
                state,
                parent,
                self._fout,
                self._mem_needed,
                self._mbooked[lane],
                self._tol[lane],
                self._peak[lane],
                True,
            )
            p = parent[node]
            if p >= 0:
                ch_not_fin = self._ch_not_fin[lane]
                ch_not_fin[p] -= 1
                if ch_not_fin[p] == 0:
                    if state[p] == ACT:
                        heappush(self.ready[lane], (eo_rank[p], p))
                    else:
                        self.orphans[lane] += 1

    @hot_kernel
    def bind_lane(self, lane: int):
        """Single-lane fast path closures (see ActivationLaneKernel.bind_lane)."""
        mbooked_list = self._mbooked
        peak_list = self._peak
        memory_bound = self.memory_bound
        bound_need = self.bound_need

        # kernel-ok: closure (ledger scalars live in the enclosing lists)
        def activate(
            lane=lane,
            peek=self._peeks[lane],
            make=self._makes[lane],
            mark=self._marks[lane],
            booked=self._booked[lane],
            bbs=self._bbs[lane],
            state=self._state[lane],
            parent=self._parent,
            mem_needed=self._mem_needed,
            offsets=self._offsets,
            child_nodes=self._child_nodes,
            ch_not_act=self._ch_not_act[lane],
            ch_not_fin=self._ch_not_fin[lane],
            threshold=self._threshold[lane],
            run=run_membooking_activation,
        ):
            mbooked, peak, _, bound = run(
                peek, _noop_remove, make, mark, booked, bbs, state, parent,
                mem_needed, offsets, child_nodes, ch_not_act, ch_not_fin,
                mbooked_list[lane], threshold, peak_list[lane], True,
            )
            mbooked_list[lane] = mbooked
            peak_list[lane] = peak
            if bound:
                memory_bound[lane] = True
                if bound < bound_need[lane]:
                    bound_need[lane] = bound

        orphans = self.orphans

        # kernel-ok: closure (ledger scalars written back to the lane lists)
        def on_finished(
            nodes,
            lane=lane,
            booked=self._booked[lane],
            bbs=self._bbs[lane],
            state=self._state[lane],
            parent=self._parent,
            fout=self._fout,
            mem_needed=self._mem_needed,
            tol=self._tol[lane],
            ch_not_fin=self._ch_not_fin[lane],
            eo_rank=self._eo_rank,
            ready=self.ready[lane],
            dispatch=dispatch_memory,
        ):
            for node in nodes:
                state[node] = FN
                mbooked_list[lane], peak_list[lane] = dispatch(
                    node, booked, bbs, state, parent, fout, mem_needed,
                    mbooked_list[lane], tol, peak_list[lane], True,
                )
                p = parent[node]
                if p >= 0:
                    ch_not_fin[p] -= 1
                    if ch_not_fin[p] == 0:
                        if state[p] == ACT:
                            heappush(ready, (eo_rank[p], p))
                        else:
                            orphans[lane] += 1

        return activate, on_finished

    def extras(self, lane: int) -> dict:
        return {"peak_booked_memory": self._peak[lane]}


#: Below this many concurrently-stepped lanes the vectorised slot-plane
#: wavefront costs more per event than a plain per-lane event heap (NumPy
#: call overhead does not amortise over a handful of rows), so `_run_batch`
#: drains narrow batches lane by lane instead.
_WAVEFRONT_MIN_LANES = 8

#: Scheduler names the batched backend can run through a lane kernel; each
#: kernel carries the scalar class it is pinned to, so a patched factory
#: registry (the reference-engine benchmarks) falls back to scalar.
LANE_KERNELS: dict[str, type] = {
    ActivationLaneKernel.name: ActivationLaneKernel,
    MemBookingLaneKernel.name: MemBookingLaneKernel,
}

def batchable_scheduler(name: str) -> bool:
    """Whether the batched backend may run ``name`` through a lane kernel.

    True only while the scheduler's factory still resolves to the scalar
    class the lane kernel is pinned to; a patched registry (e.g. the
    reference-engine benchmarks) must fall back to the scalar path.  This is
    the ``batchable`` predicate
    :meth:`~repro.experiments.plan.SweepPlan.lane_groups` is evaluated with.
    """
    from ..schedulers import SCHEDULER_FACTORIES

    kernel_cls = LANE_KERNELS.get(name)
    return (
        kernel_cls is not None
        and SCHEDULER_FACTORIES.get(name) is kernel_cls.scheduler_class
    )


#: Process-wide tally of which collapse rule resolved how many lanes,
#: accumulated across every :func:`simulate_lanes` call.  Diagnostic only:
#: the batch speed benchmark snapshots it around a grid to report the
#: yield of each rule next to the simulated/collapsed counts.
collapse_rule_counts: Counter = Counter()


class _LaneSim:
    """Raw outcome of one actually-simulated lane (pre-record, pre-profile)."""

    __slots__ = (
        "start",
        "finish",
        "processor",
        "clock",
        "finished",
        "num_events",
        "failure",
        "decision",
        "extras",
        "peak_running",
        "never_blocked",
        "never_bound",
        "starve_min",
        "bound_need",
    )


def _run_batch_native(
    kernel_cls: type,
    workspace: SimWorkspace,
    lanes: Sequence[tuple[int, float]],
    native: bool | None,
) -> "list[_LaneSim] | None":
    """Run every lane of the batch through the compiled C stepper.

    Returns ``None`` when native kernels are off or unavailable (the caller
    falls back to the Python wavefront).  Each lane is one C call over the
    shared workspace planes; the returned :class:`_LaneSim` carries the
    exact schedule arrays *and* the exact collapse diagnostics
    (``peak_running`` / ``never_blocked`` / ``never_bound`` /
    ``starve_min``, with the per-batch starvation sentinel) the Python
    engine would have produced, so the collapse rounds of
    :func:`simulate_lanes` take identical decisions either way.
    """
    if kernel_cls is ActivationLaneKernel:
        kernel_name = "activation"
    elif kernel_cls is MemBookingLaneKernel:
        kernel_name = "membooking"
    else:
        return None
    from .. import native as native_mod

    kernels = native_mod.native_kernels(native)
    if kernels is None:
        return None
    planes = workspace.native_planes()
    pmax = max(int(p) for p, _ in lanes)
    starve_init = workspace.n + pmax + 1
    perf_counter = time.perf_counter
    sims: list[_LaneSim] = []
    for num_processors, memory_limit in lanes:
        tic = perf_counter()
        outcome = native_mod.simulate(
            kernels,
            kernel_name,
            planes,
            int(num_processors),
            float(memory_limit),
            starve_init=starve_init,
        )
        seconds = perf_counter() - tic
        sim = _LaneSim()
        sim.start = outcome.start
        sim.finish = outcome.finish
        sim.processor = outcome.processor
        sim.clock = outcome.clock
        sim.finished = outcome.finished
        sim.num_events = outcome.num_events
        sim.failure = outcome.failure
        sim.decision = seconds
        sim.extras = outcome.extras
        sim.peak_running = outcome.peak_running
        sim.never_blocked = not outcome.blocked
        sim.never_bound = not outcome.memory_bound
        sim.starve_min = outcome.starve_min
        sim.bound_need = outcome.bound_need
        sims.append(sim)
    return sims


@hot_kernel(note="batched wavefront event loop")
def _run_batch(
    kernel_cls: type,
    workspace: SimWorkspace,
    lanes: Sequence[tuple[int, float]],
    native: bool | None = None,
) -> list[_LaneSim]:
    """Advance every lane of one batch to completion.

    When the compiled kernel plane is enabled (and ``kernel_cls`` is one of
    the built-in lane kernels), each lane is simulated by one C call
    instead; the Python paths below remain the fallback and the oracle.
    Wide batches step in lock-step, one event wavefront per iteration: the
    vectorised slot-plane scan yields every lane's completions, the kernel
    consumes them as one batch, then each lane activates and dispatches at
    its own instant.  Narrow batches drain lane by lane over a plain event
    heap (see :data:`_WAVEFRONT_MIN_LANES`); both paths run the identical
    transitions in the identical order.
    """
    native_sims = _run_batch_native(kernel_cls, workspace, lanes, native)
    if native_sims is not None:
        return native_sims
    B = len(lanes)
    n = workspace.n
    nan = math.nan
    inf = math.inf
    procs = [int(p) for p, _ in lanes]
    limits = [float(m) for _, m in lanes]
    perf_counter = time.perf_counter

    tic = perf_counter()
    kernel = kernel_cls(workspace, limits)
    on_started = kernel.on_started
    activate = kernel.activate
    on_finished = kernel.on_finished
    ready = kernel.ready
    ptime = workspace.ptime_list

    # Flat per-task result state, one row per lane (lists, as in the engine).
    start = [[nan] * n for _ in range(B)]
    finish = [[nan] * n for _ in range(B)]
    processor = [[UNSCHEDULED] * n for _ in range(B)]
    free = [list(range(p - 1, -1, -1)) for p in procs]  # pop() gives proc 0 first
    pmax = max(procs)
    # The event wavefront: per-lane processor slots (slot id == proc id).
    slot_time = np.full((B, pmax), inf, dtype=np.float64)
    slot_node = np.zeros((B, pmax), dtype=np.int64)
    slot_time_rows = list(slot_time)
    slot_node_rows = list(slot_node)
    clock = [0.0] * B
    running = [0] * B
    finished = [0] * B
    num_events = [0] * B
    failure: list[str | None] = [None] * B
    decision = [0.0] * B
    peak_running = [0] * B
    blocked = [False] * B  # processor-blocked at least once
    # Starvation tracking for the memory-slack/starvation collapse rule:
    # the minimum concurrency observed at any instant where the ready pool
    # drained while unactivated tasks remained.  A processor count p was
    # "never starved by memory" on this schedule iff starve_min >= p.
    big = n + pmax + 1
    starve_min = [big] * B
    orphans = kernel.orphans

    # kernel-ok: closure (the dispatch step reads/writes the batch planes)
    def dispatch(lane: int) -> None:
        """Assign activated & available tasks to idle processors (EO order)."""
        fp = free[lane]
        rd = ready[lane]
        if not rd:
            if orphans[lane] > 0 and running[lane] < starve_min[lane]:
                starve_min[lane] = running[lane]
            return
        if not fp:
            blocked[lane] = True
            return
        clk = clock[lane]
        st = start[lane]
        fi = finish[lane]
        pr = processor[lane]
        times_row = slot_time_rows[lane]
        nodes_row = slot_node_rows[lane]
        started = 0
        while fp and rd:
            node = heappop(rd)[1]
            if on_started is not None:
                on_started(lane, node)
            proc = fp.pop()
            st[node] = clk
            f = clk + ptime[node]
            fi[node] = f
            pr[node] = proc
            times_row[proc] = f
            nodes_row[proc] = node
            started += 1
        total = running[lane] + started
        running[lane] = total
        if total > peak_running[lane]:
            peak_running[lane] = total
        if rd:
            if not fp:
                blocked[lane] = True
        elif orphans[lane] > 0 and total < starve_min[lane]:
            starve_min[lane] = total

    # --- t = 0 event ---------------------------------------------------
    for lane in range(B):
        activate(lane)
        # Ready-pushes of an activate call are exactly the activations of
        # nodes whose children were already done — i.e. consumed orphans.
        orphans[lane] -= len(ready[lane])
        dispatch(lane)
        num_events[lane] += 1
        if running[lane] == 0 and finished[lane] < n:
            failure[lane] = (
                "no task can be started at t=0: the memory bound is too small "
                "for the first activations"
            )
    step_seconds = perf_counter() - tic
    share = step_seconds / B
    for lane in range(B):
        decision[lane] += share

    # --- main loop ------------------------------------------------------
    act_list = [lane for lane in range(B) if running[lane] > 0]

    if len(act_list) <= _WAVEFRONT_MIN_LANES:
        # Narrow batch (the collapse rounds usually leave a handful of
        # leaders): the vectorised wavefront cannot amortise its per-step
        # NumPy overhead, so drain each lane with a plain event heap —
        # identical transitions, identical delivery order.
        finished_now: list[int] = []
        for lane in act_list:
            tic = perf_counter()
            lane_activate, lane_on_finished = kernel.bind_lane(lane)
            events = [  # kernel-ok: loop-alloc (per-lane event-heap seed)
                (t, int(node))
                for t, node in zip(slot_time_rows[lane].tolist(), slot_node_rows[lane].tolist())
                if t != inf
            ]
            heapify(events)
            fp = free[lane]
            rd = ready[lane]
            st = start[lane]
            fi = finish[lane]
            pr = processor[lane]
            finished_now.clear()
            while events:
                clk = events[0][0]
                clock[lane] = clk
                finished_now.clear()
                while events and events[0][0] == clk:
                    finished_now.append(heappop(events)[1])
                completed_now = len(finished_now)
                running[lane] -= completed_now
                finished[lane] += completed_now
                num_events[lane] += completed_now
                for node in finished_now:
                    fp.append(pr[node])
                lane_on_finished(finished_now)
                pool = len(rd)
                lane_activate()
                pushed = len(rd) - pool
                if pushed:
                    orphans[lane] -= pushed
                # Inline dispatch (heap events instead of slot writes).
                if rd:
                    if fp:
                        started = 0
                        while fp and rd:
                            node = heappop(rd)[1]
                            if on_started is not None:
                                on_started(lane, node)
                            proc = fp.pop()
                            st[node] = clk
                            f = clk + ptime[node]
                            fi[node] = f
                            pr[node] = proc
                            heappush(events, (f, node))
                            started += 1
                        total = running[lane] + started
                        running[lane] = total
                        if total > peak_running[lane]:
                            peak_running[lane] = total
                        if rd:
                            if not fp:
                                blocked[lane] = True
                        elif orphans[lane] > 0 and total < starve_min[lane]:
                            starve_min[lane] = total
                    else:
                        blocked[lane] = True
                elif orphans[lane] > 0 and running[lane] < starve_min[lane]:
                    starve_min[lane] = running[lane]
                if running[lane] == 0 and finished[lane] < n:
                    failure[lane] = (
                        f"deadlock at t={clock[lane]:.6g}: {n - finished[lane]} tasks "
                        "remain but none is activated and available under the memory bound"
                    )
                    break
            decision[lane] += perf_counter() - tic
        act_list = []

    full = len(act_list) == B  # the common case until lanes start finishing
    act = None if full else np.asarray(act_list, dtype=np.int64)
    while act_list:
        tic = perf_counter()
        num_active = len(act_list)
        # One wavefront: the vectorised row-min over the slot plane yields
        # every active lane's next event instant and its completions.
        times = slot_time if full else slot_time[act]
        clocks = times.min(axis=1)  # every active lane has >= 1 running task
        rows, cols = np.nonzero(times == clocks[:, None])
        if rows.size == num_active:
            # Fast path: exactly one completion per lane (rows is then the
            # identity over act and already lane-major).
            lanes_arr = rows if full else act
            nodes_arr = slot_node[lanes_arr, cols]
        else:
            lanes_arr = rows if full else act[rows]
            nodes_arr = slot_node[lanes_arr, cols]
            # Deliver completions lane-major, ascending node within a lane —
            # the tie order of the scalar engine's event heap.
            order = np.lexsort((nodes_arr, rows))
            cols = cols[order]
            lanes_arr = lanes_arr[order]
            nodes_arr = nodes_arr[order]
        slot_time[lanes_arr, cols] = inf
        lane_list = lanes_arr.tolist()
        node_list = nodes_arr.tolist()
        for lane, col in zip(lane_list, cols.tolist()):
            free[lane].append(col)  # slot id is the processor id
            running[lane] -= 1
            finished[lane] += 1
            num_events[lane] += 1
        on_finished(lane_list, node_list)
        clock_list = clocks.tolist()
        stalled = False
        for index, lane in enumerate(act_list):
            clock[lane] = clock_list[index]
            pool = len(ready[lane])
            activate(lane)
            pushed = len(ready[lane]) - pool
            if pushed:
                orphans[lane] -= pushed
            dispatch(lane)
            if running[lane] == 0:
                stalled = True
                if finished[lane] < n:
                    failure[lane] = (
                        f"deadlock at t={clock[lane]:.6g}: {n - finished[lane]} tasks "
                        "remain but none is activated and available under the memory bound"
                    )
        step_seconds = perf_counter() - tic
        share = step_seconds / num_active
        for lane in act_list:
            decision[lane] += share
        if stalled:
            # kernel-ok: loop-alloc (rare stall path rebuilds the active set)
            act_list = [lane for lane in act_list if running[lane] > 0]
            full = False
            act = np.asarray(act_list, dtype=np.int64)  # kernel-ok: loop-alloc

    # --- collect --------------------------------------------------------
    sims: list[_LaneSim] = []
    for lane in range(B):
        sim = _LaneSim()
        sim.start = np.asarray(start[lane], dtype=np.float64)  # kernel-ok: loop-alloc
        sim.finish = np.asarray(finish[lane], dtype=np.float64)  # kernel-ok: loop-alloc
        sim.processor = np.asarray(processor[lane], dtype=np.int64)  # kernel-ok: loop-alloc
        sim.clock = clock[lane]
        sim.finished = finished[lane]
        sim.num_events = num_events[lane]
        sim.failure = failure[lane]
        sim.decision = decision[lane]
        sim.extras = kernel.extras(lane)
        sim.peak_running = peak_running[lane]
        sim.never_blocked = not blocked[lane]
        sim.never_bound = not kernel.memory_bound[lane]
        sim.starve_min = starve_min[lane]
        sim.bound_need = kernel.bound_need[lane]
        sims.append(sim)
    return sims


def simulate_lanes(
    kernel_cls: type,
    tree: TaskTree,
    ao: Ordering,
    eo: Ordering,
    workspace: SimWorkspace | None,
    lanes: Sequence[tuple[int, float]],
    native: bool | None = None,
) -> list[tuple[ScheduleResult, int]]:
    """Simulate every ``(processors, memory limit)`` lane of one tree.

    Lanes are resolved in rounds: each round simulates, per distinct memory
    limit, the largest-``p`` unresolved lane as one lock-step batch
    (:func:`_run_batch`), then applies the saturation and memory-slack
    collapse rules of the module docstring to resolve followers without
    simulating them.  Returns one ``(result, back)`` pair per lane, in
    lane order: a clone shares the schedule arrays of the representative
    ``back`` lanes before it, and a representative has ``back == 0`` (so
    ``bool(back)`` says whether a lane is a clone).  The results are
    bit-identical to running ``kernel_cls.scheduler_class`` per instance —
    wall-clock ``scheduling_seconds`` aside — except that ``peak_memory``
    is left ``nan``, as the schedulers leave it with ``peak_on_run`` off:
    the batched backend takes a representative's peak from its record's
    schedule check and copies it to the clones.
    """
    if not lanes:
        return []
    # Same argument validation as Scheduler.schedule, once per batch.
    for num_processors, memory_limit in lanes:
        if num_processors < 1:
            raise SchedulingError("num_processors must be at least 1")
        if not math.isfinite(memory_limit) or memory_limit <= 0:
            raise SchedulingError("memory_limit must be a positive finite number")
    if ao.n != tree.n or eo.n != tree.n:
        raise SchedulingError("orders must cover exactly the nodes of the tree")
    check_activation_order(tree, ao, eo, workspace)
    if workspace is None or not workspace.matches(tree, ao, eo):
        workspace = SimWorkspace(tree, ao, eo)

    B = len(lanes)
    procs = [int(p) for p, _ in lanes]
    limits = [float(m) for _, m in lanes]
    #: The starvation rule's rank argument needs the execution priorities to
    #: *be* the activation priorities (the setup of every main figure).
    shared_order = eo is ao
    sims: dict[int, _LaneSim] = {}
    clone_of: dict[int, int] = {}
    #: How each clone was resolved.  A *starvation* clone shares its donor's
    #: schedule but not its ready-pool trajectory (a larger budget keeps
    #: more tasks waiting even when none of them can start), so its
    #: ``never_blocked`` / ``peak_running`` flags describe the donor's
    #: memory limit, not the clone's — such lanes must not donate through
    #: the saturation or blocked-replay rules.  Saturation, slack,
    #: blocked-replay and duplicate clones replay the donor's activation
    #: *and* ready trajectories, so every flag stays
    #: valid; a starvation clone's ``starve_min`` is a conservative lower
    #: bound of its real one (its fuller pool can only starve less), which
    #: is exactly the direction the starvation test needs.
    clone_rule: dict[int, str] = {}
    pending = set(range(B))

    def try_collapse() -> None:
        """Resolve pending lanes against every already-resolved lane.

        Clones act as donors at their own ``(p, limit)`` — with the
        starvation caveat above — and the loop iterates to a fixed point so
        chains of clones resolve within one call.
        """
        progress = True
        while progress and pending:
            progress = False
            for follower in sorted(pending):
                p_f = procs[follower]
                m_f = limits[follower]
                # The follower's ledger threshold, exactly as its own
                # simulation would compute it (tolerance included).
                t_f = m_f + 1e-9 * max(1.0, m_f)
                for donor in range(B):
                    if donor == follower or (donor in pending):
                        continue
                    src = clone_of.get(donor, donor)
                    sim = sims[src]
                    p_d = procs[donor]
                    m_d = limits[donor]
                    same_p = p_f == p_d
                    if same_p and m_f == m_d:
                        rule = "duplicate"
                    elif (
                        m_f == m_d
                        and sim.never_blocked
                        and p_f >= sim.peak_running
                        and clone_rule.get(donor) != "starvation"
                    ):
                        # Saturation collapse: the donor ran the
                        # unconstrained schedule; p_f covers its concurrency.
                        rule = "saturation"
                    elif same_p and m_f > m_d and sim.never_bound:
                        # Memory-slack collapse: the donor's activation
                        # admitted everything it ever saw.
                        rule = "slack"
                    elif (
                        m_f > m_d
                        and t_f < sim.bound_need
                        and clone_rule.get(donor) != "starvation"
                        and (
                            same_p
                            or (sim.never_blocked and p_f >= sim.peak_running)
                        )
                    ):
                        # Blocked-replay collapse: the follower's larger
                        # budget still sits strictly below every ledger level
                        # a memory-bound stop of the donor would have needed
                        # (``bound_need``), so the follower is refused the
                        # exact same activations at the exact same instants —
                        # its whole trajectory (activation, ready pool,
                        # ledger, dispatch) replays the donor's verbatim.
                        # This is the rule that finally collapses the memory
                        # ladder of processor-*blocked* lanes, which slack
                        # (never bound) and starvation (no idle processor at
                        # any memory stall) can never certify; and because
                        # the replay is exact it composes with the saturation
                        # argument to resolve followers differing in *both*
                        # axes (``p_f >= R*`` of a never-blocked donor).
                        rule = "blocked-replay"
                    elif (
                        shared_order
                        and same_p
                        and m_f > m_d
                        and sim.starve_min >= p_f
                    ):
                        # Starvation collapse: the donor never idled one of
                        # p_f processors while activation was memory-stalled,
                        # so a larger budget could not have changed a single
                        # dispatch (EO == AO: extra activations always rank
                        # after every task the donor had ready).
                        rule = "starvation"
                    else:
                        continue
                    clone_of[follower] = src
                    # Provenance is inherited through starvation steps: a
                    # duplicate of a starvation clone is still
                    # starvation-limited (its flags describe the donor's
                    # budget).  Every other rule — blocked-replay included —
                    # produces an *exact* trajectory replay, so those clones
                    # keep valid flags and donate through every rule.
                    if "starvation" in (rule, clone_rule.get(donor)):
                        clone_rule[follower] = "starvation"
                    else:
                        clone_rule[follower] = rule
                    collapse_rule_counts[rule] += 1
                    pending.discard(follower)
                    progress = True
                    break

    while pending:
        # Round leaders: per distinct limit the largest-p unresolved lane,
        # thinned to the smallest limit per processor count — the remaining
        # same-p lanes often become starvation/slack clones of it, so
        # simulating them now would waste the round.
        by_limit: dict[float, int] = {}
        for index in sorted(pending):
            best = by_limit.get(limits[index])
            if best is None or procs[index] > procs[best]:
                by_limit[limits[index]] = index
        by_proc: dict[int, int] = {}
        for index in by_limit.values():
            best = by_proc.get(procs[index])
            if best is None or limits[index] < limits[best]:
                by_proc[procs[index]] = index
        batch = sorted(by_proc.values())
        for index, sim in zip(
            batch,
            _run_batch(kernel_cls, workspace, [lanes[i] for i in batch], native=native),
        ):
            sims[index] = sim
            pending.discard(index)
        try_collapse()

    outcomes: list[tuple[ScheduleResult, int]] = []
    # Every clone of the round loop shares its donor's _LaneSim; the first
    # lane of each sim in lane order is its representative.
    representative: dict[int, int] = {}
    for lane in range(B):
        src = clone_of.get(lane, lane)
        sim = sims[src]
        completed = sim.finished == tree.n
        result = ScheduleResult(
            scheduler=kernel_cls.name,
            tree_size=tree.n,
            num_processors=procs[lane],
            memory_limit=limits[lane],
            completed=completed,
            makespan=sim.clock if completed else math.inf,
            start_times=sim.start,
            finish_times=sim.finish,
            processor=sim.processor,
            peak_memory=math.nan,
            scheduling_seconds=sim.decision,
            num_events=sim.num_events,
            activation_order=ao.name,
            execution_order=eo.name,
            failure_reason=sim.failure,
            extras=dict(sim.extras),
        )
        back = lane - representative.setdefault(id(sim), lane)
        outcomes.append((result, back))
    return outcomes
