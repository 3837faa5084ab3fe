"""Lane simulation: every (processors, memory limit) instance of one tree.

A *lane* is one (processors, memory limit) instance of a fixed
(tree, AO, EO, heuristic).  The experiment grids of the paper run ~60 such
instances per tree; :func:`simulate_lanes` resolves them together so that a
lane which provably replays another one is never simulated:

* every simulated lane is **one call**: the compiled C stepper
  (:func:`repro.native.simulate`) when the native kernel plane is on, else
  :func:`_drain`, a single-lane event loop over a plain heap of completion
  events.  Both return a :class:`~repro.native.NativeOutcome`: the schedule
  arrays plus the collapse diagnostics below, with identical values;
* the heuristic state of a Python lane is one :class:`ActivationLaneKernel`
  or :class:`MemBookingLaneKernel`, whose transitions are the **shared
  kernel definitions** factored out of the scalar schedulers
  (:func:`repro.schedulers.activation.run_activation_scan`,
  :func:`repro.schedulers.membooking.dispatch_memory`,
  :func:`repro.schedulers.membooking.run_membooking_activation`), so the
  lane kernels cannot drift from the per-instance kernels: both run the
  identical ledger folds, tolerances and clamps, and the produced schedules
  are **bit-identical** to the scalar
  :class:`~repro.schedulers.activation.ActivationScheduler` /
  :class:`~repro.schedulers.membooking.MemBookingScheduler` (pinned by
  ``tests/test_batch_parity.py``, which also cross-checks the frozen
  :mod:`repro.schedulers.reference` generation).  State that no lane
  changes — MemBooking's leaf candidate heap and state bytes — is built
  once per :func:`simulate_lanes` call and copied per lane.

Lane collapse
-------------
The throughput of the lane path comes from **provable lane collapse**:
many instances of a grid are exact replays of one another, and the engine
detects that instead of re-simulating.

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
limit per ``p`` — the likeliest future clones are deferred), one call per
lane, then applies the collapse rules — plus the degenerate exact-duplicate
``(p, limit)`` case; a lane whose activation completes entirely at
``t = 0`` is simply a never-memory-bound lane, so the slack rule covers it
— to a fixed point, with resolved clones acting as donors at their own
``(p, limit)``.  Clones inherit the representative's schedule arrays (so
its peak memory); only their record-level fields (memory limit and ratios
derived from it) differ, which the caller derives per lane.

Timing: a simulated lane's ``scheduling_seconds`` is the wall-clock of its
own call, kernel set-up included; a clone reports its representative's.
Wall-clock fields are the only ones allowed to differ from the serial
backend.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .. import native as native_mod
from ..core.task_tree import TaskTree
from ..native import NativeOutcome
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
    """One lane's state of the Activation heuristic (Algorithm 1).

    The containers are the scalar kernel's — activation flags as a
    ``bytearray``, children counters as a flat list, the ledger as Python
    floats — and :meth:`bind` returns the transitions as closures over
    them, whose ``UpdateCAND-ACT`` fold is shared verbatim through
    :func:`~repro.schedulers.activation.run_activation_scan`.
    """

    name = "Activation"
    scheduler_class = ActivationScheduler

    @staticmethod
    def template(workspace: SimWorkspace) -> None:
        """Lane-independent state: none, every Activation lane starts empty."""
        return None

    def __init__(
        self, workspace: SimWorkspace, memory_limit: float, template: None = None
    ) -> None:
        self.workspace = workspace
        limit = float(memory_limit)
        self.tol = 1e-9 * max(1.0, limit)
        self.threshold = limit + self.tol
        #: The inlined MemoryLedger and the next AO position to activate.
        self.booked = 0.0
        self.peak = 0.0
        self.next = 0
        #: Memory-slack collapse flag: True once an activation attempt was
        #: stopped by the budget (the lane is "memory-bound").
        self.memory_bound = False
        #: Blocked-replay certificate: the minimum over every memory-bound
        #: stop of the budget (``booked + next request``) that stop would
        #: have needed to proceed (``inf`` while never bound).
        self.bound_need = math.inf
        self.ready: list[tuple[int, int]] = []
        #: Unactivated tasks whose children have all finished: what a lane
        #: with a larger budget *could* have made ready right now.  Leaves
        #: qualify from the start; completions add nodes (the not-activated
        #: branch of ``on_finished``), activation removes them (the event
        #: loop counts the ready-pushes of each ``activate`` call).
        self.orphans = len(workspace.leaves_list)
        self.activated = bytearray(workspace.n)
        self.ch_not_fin = workspace.num_children_list.copy()

    @hot_kernel
    def bind(self):
        """``(activate, on_started, on_finished)``: the lane's transitions.

        Everything a transition reads is bound as a parameter default; the
        closures write the ledger scalars back to the kernel, which does
        not hold them in turn (no reference cycle keeps a finished lane's
        planes alive).
        """
        ws = self.workspace

        def activate(
            lane=self,
            n=ws.n,
            threshold=self.threshold,
            req_list=ws.request_ao_list,
            req_ao=ws.request_ao,
            ao_seq=ws.ao_sequence_list,
            activated=self.activated,
            ch_not_fin=self.ch_not_fin,
            eo_rank=ws.eo_rank_list,
            ready=self.ready,
            scan=run_activation_scan,
        ):
            pos = lane.next
            if pos >= n:
                return
            booked = lane.booked
            need = booked + req_list[pos]
            if need > threshold:
                lane.memory_bound = True
                if need < lane.bound_need:
                    lane.bound_need = need
                return
            pos, booked, lane.peak = scan(
                pos, n, booked, lane.peak, threshold, req_list, req_ao,
                ao_seq, activated, ch_not_fin, eo_rank, ready,
            )
            if pos < n:
                lane.memory_bound = True  # the scan stopped on the budget
                need = booked + req_list[pos]
                if need < lane.bound_need:
                    lane.bound_need = need
            lane.next = pos
            lane.booked = booked

        def on_finished(
            nodes,
            lane=self,
            release=ws.release_list,
            neg_tol=-self.tol,
            parent=ws.parent_list,
            activated=self.activated,
            ch_not_fin=self.ch_not_fin,
            eo_rank=ws.eo_rank_list,
            ready=self.ready,
        ):
            # The scalar kernel's ``_on_tasks_finished``: nodes arrive in
            # ascending order, the delivery order of the scalar engine.
            booked = lane.booked
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
                            lane.orphans += 1
            lane.booked = booked

        # No per-start bookkeeping (mirrors the scalar kernel's absent hook).
        return activate, None, on_finished

    def extras(self) -> dict:
        return {"peak_booked_memory": self.peak, "activated": self.next}


def _noop_remove(node: int) -> None:
    """Lazy candidate removal (the state flip invalidates the heap entry)."""


class MemBookingLaneKernel:
    """One lane's state of MemBooking (Section 4, optimised structures).

    The ``Booked``/``BookedBySubtree`` planes and the state bytes are flat
    lists, as in the scalar kernel, and every transition :meth:`bind`
    returns goes through the shared
    :func:`~repro.schedulers.membooking.dispatch_memory` /
    :func:`~repro.schedulers.membooking.run_membooking_activation`
    definitions.  The flags are those of :class:`ActivationLaneKernel`;
    ``bound_need`` is the ledger level (``MBooked`` plus the missing
    booking) a budget-blocked candidate would have required.
    """

    name = "MemBooking"
    scheduler_class = MemBookingScheduler

    @staticmethod
    @plane_mutator(note="builds the lane-independent leaf candidate heap")
    def template(workspace: SimWorkspace) -> tuple[bytearray, list[tuple[int, int]]]:
        """State bytes and candidate heap after the leaf setup, which every
        lane shares (the scalar kernel re-pushes every leaf per run)."""
        state = bytearray(workspace.n)
        cand: list[tuple[int, int]] = []
        ao_rank = workspace.ao_rank_list
        for leaf in workspace.leaves_list:
            state[leaf] = CAND
            heappush(cand, (ao_rank[leaf], leaf))
        return state, cand

    def __init__(
        self,
        workspace: SimWorkspace,
        memory_limit: float,
        template: tuple[bytearray, list[tuple[int, int]]],
    ) -> None:
        n = workspace.n
        self.workspace = workspace
        limit = float(memory_limit)
        self.tol = 1e-9 * max(1.0, limit)
        self.threshold = limit + self.tol
        self.mbooked = 0.0
        self.peak = 0.0
        self.memory_bound = False
        self.bound_need = math.inf
        self.ready: list[tuple[int, int]] = []
        #: Not-yet-ACT tasks with every child finished (see ActivationLaneKernel).
        self.orphans = len(workspace.leaves_list)
        self.booked = [0.0] * n
        self.bbs = [_UNSET] * n
        self.state = bytearray(template[0])
        self.cand = template[1].copy()
        self.ch_not_act = workspace.num_children_list.copy()
        self.ch_not_fin = workspace.num_children_list.copy()

    @hot_kernel
    def bind(self):
        """``(activate, on_started, on_finished)`` (see ActivationLaneKernel.bind)."""
        ws = self.workspace

        def peek(heap=self.cand, state=self.state):
            while heap:
                node = heap[0][1]
                if state[node] == CAND:
                    return node
                heappop(heap)  # stale entry of an already-activated node
            return None

        def make(node, heap=self.cand, state=self.state, rank=ws.ao_rank_list):
            state[node] = CAND
            heappush(heap, (rank[node], node))

        def mark(node, ready=self.ready, rank=ws.eo_rank_list):
            heappush(ready, (rank[node], node))

        def activate(
            lane=self,
            peek=peek,
            make=make,
            mark=mark,
            booked=self.booked,
            bbs=self.bbs,
            state=self.state,
            parent=ws.parent_list,
            mem_needed=ws.mem_needed_list,
            offsets=ws.child_offsets,
            child_nodes=ws.child_nodes,
            ch_not_act=self.ch_not_act,
            ch_not_fin=self.ch_not_fin,
            threshold=self.threshold,
            run=run_membooking_activation,
        ):
            lane.mbooked, lane.peak, _, bound = run(
                peek, _noop_remove, make, mark, booked, bbs, state, parent,
                mem_needed, offsets, child_nodes, ch_not_act, ch_not_fin,
                lane.mbooked, threshold, lane.peak,
                True,  # the Section 5.1 default, as in MemBookingScheduler
            )
            if bound:
                lane.memory_bound = True
                if bound < lane.bound_need:
                    lane.bound_need = bound

        def on_started(node, state=self.state):
            state[node] = RUN

        def on_finished(
            nodes,
            lane=self,
            booked=self.booked,
            bbs=self.bbs,
            state=self.state,
            parent=ws.parent_list,
            fout=ws.fout_list,
            mem_needed=ws.mem_needed_list,
            tol=self.tol,
            ch_not_fin=self.ch_not_fin,
            eo_rank=ws.eo_rank_list,
            ready=self.ready,
            dispatch=dispatch_memory,
        ):
            for node in nodes:
                state[node] = FN
                lane.mbooked, lane.peak = dispatch(
                    node, booked, bbs, state, parent, fout, mem_needed,
                    lane.mbooked, tol, lane.peak, True,
                )
                p = parent[node]
                if p >= 0:
                    ch_not_fin[p] -= 1
                    if ch_not_fin[p] == 0:
                        if state[p] == ACT:
                            heappush(ready, (eo_rank[p], p))
                        else:
                            lane.orphans += 1

        return activate, on_started, on_finished

    def extras(self) -> dict:
        return {"peak_booked_memory": self.peak}


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


@hot_kernel(note="single-lane event loop")
def _drain(kernel, num_processors: int, starve_init: int) -> NativeOutcome:
    """Simulate one Python lane to completion over a plain event heap.

    The twin of :func:`repro.native.simulate`: the event loop of
    :class:`~repro.schedulers.engine.EventDrivenScheduler` (completions of
    an instant delivered in ascending node order, processor 0 taken first)
    plus the collapse diagnostics — ``peak_running`` (the largest
    concurrency), ``blocked`` (a ready task once waited for a processor)
    and ``starve_min``: the smallest concurrency at an instant where the
    ready pool drained while an orphan existed, ``starve_init`` if none
    did.  A processor count ``p`` was never starved by memory on this
    schedule iff ``starve_min >= p``.
    """
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
    starve_min = starve_init
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
    limit, the largest-``p`` unresolved lane, one call per lane (C when
    ``native`` resolves to the compiled kernels, else :func:`_drain`), then
    applies the collapse rules of the module docstring to resolve followers
    without simulating them.  Returns one ``(result, back)`` pair per lane, in
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
    # Same argument validation as Scheduler.schedule, once per call.
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
    kernels = native_mod.native_kernels(native)
    if kernels is None:
        template = kernel_cls.template(workspace)
    else:
        planes = workspace.native_planes()
    perf_counter = time.perf_counter
    sims: dict[int, NativeOutcome] = {}
    seconds: dict[int, float] = {}
    clone_of: dict[int, int] = {}
    #: How each clone was resolved.  A *starvation* clone shares its donor's
    #: schedule but not its ready-pool trajectory (a larger budget keeps
    #: more tasks waiting even when none of them can start), so its
    #: ``blocked`` / ``peak_running`` flags describe the donor's
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
                        and not sim.blocked
                        and p_f >= sim.peak_running
                        and clone_rule.get(donor) != "starvation"
                    ):
                        # Saturation collapse: the donor ran the
                        # unconstrained schedule; p_f covers its concurrency.
                        rule = "saturation"
                    elif same_p and m_f > m_d and not sim.memory_bound:
                        # Memory-slack collapse: the donor's activation
                        # admitted everything it ever saw.
                        rule = "slack"
                    elif (
                        m_f > m_d
                        and t_f < sim.bound_need
                        and clone_rule.get(donor) != "starvation"
                        and (
                            same_p
                            or (not sim.blocked and p_f >= sim.peak_running)
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
        # The starvation sentinel of the round: above every p it simulates.
        starve_init = tree.n + max(procs[index] for index in batch) + 1
        for index in batch:
            tic = perf_counter()
            if kernels is None:
                sim = _drain(
                    kernel_cls(workspace, limits[index], template), procs[index], starve_init
                )
            else:
                sim = native_mod.simulate(
                    kernels,
                    kernel_cls.scheduler_class.native_kernel,
                    planes,
                    procs[index],
                    limits[index],
                    starve_init=starve_init,
                )
            seconds[index] = perf_counter() - tic
            sims[index] = sim
            pending.discard(index)
        try_collapse()

    outcomes: list[tuple[ScheduleResult, int]] = []
    # Every clone shares its simulated lane's outcome; the first lane of
    # each outcome in lane order is its representative.
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
            scheduling_seconds=seconds[src],
            num_events=sim.num_events,
            activation_order=ao.name,
            execution_order=eo.name,
            failure_reason=sim.failure,
            extras=dict(sim.extras),
        )
        back = lane - representative.setdefault(src, lane)
        outcomes.append((result, back))
    return outcomes
