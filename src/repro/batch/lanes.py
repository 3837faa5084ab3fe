"""Lane simulation: every (processors, memory limit) instance of one tree.

A *lane* is one (processors, memory limit) instance of a fixed
(tree, AO, EO, heuristic).  The experiment grids of the paper run ~60 such
instances per tree; :func:`simulate_lanes` resolves them together so that a
lane which provably replays another one is never simulated:

* every simulated lane is **one call**: the compiled C stepper
  (:func:`repro.native.simulate`) when the native kernel plane is on, else
  the Python event loop :func:`repro.schedulers.engine.simulate_kernel` over
  a fresh heuristic kernel
  (:class:`~repro.schedulers.activation.ActivationKernel` or
  :class:`~repro.schedulers.membooking.MemBookingKernel`) — the very loop
  and kernels the schedulers run, so a lane's schedule is the scheduler's.
  Both return a :class:`~repro.native.NativeOutcome`: the schedule arrays
  plus the collapse diagnostics below, with identical values.  State that
  no lane changes — MemBooking's leaf candidate heap and state bytes — is
  built once per :func:`simulate_lanes` call and copied per lane.

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
own call, kernel set-up included, the fastest of ``repetitions`` calls; a
clone reports its representative's.  Wall-clock fields are the only ones
allowed to differ from the serial backend.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Sequence

from .. import native as native_mod
from ..core.task_tree import TaskTree
from ..native import NativeOutcome
from ..orders import Ordering
from ..schedulers.activation import ActivationScheduler
from ..schedulers.base import ScheduleResult, SchedulingError, check_activation_order
from ..schedulers.engine import (
    SimWorkspace,
    native_twin,
    result_from_outcome,
    simulate_kernel,
)
from ..schedulers.membooking import MemBookingScheduler
from ..schedulers.validation import memory_profile  # noqa: F401  (tracers patch it by module)

__all__ = [
    "LANE_KERNELS",
    "batchable_scheduler",
    "simulate_lanes",
]

#: The scheduler classes whose instances the batched backend runs as lanes.
_LANE_SCHEDULERS: tuple[type, ...] = (ActivationScheduler, MemBookingScheduler)

#: Scheduler name -> the kernel class its lanes simulate.
LANE_KERNELS: dict[str, type] = {cls.name: cls.kernel for cls in _LANE_SCHEDULERS}


def batchable_scheduler(name: str) -> bool:
    """Whether the batched backend may run ``name`` through its lane kernel.

    True only while the scheduler's factory still resolves to the class
    whose kernel is in :data:`LANE_KERNELS`; a patched registry (e.g. the
    reference-engine benchmarks) must fall back to the scalar path.  This is
    the ``batchable`` predicate
    :meth:`~repro.experiments.plan.SweepPlan.lane_groups` is evaluated with.
    """
    from ..schedulers import SCHEDULER_FACTORIES

    factory = SCHEDULER_FACTORIES.get(name)
    return factory in _LANE_SCHEDULERS and LANE_KERNELS.get(name) is factory.kernel


#: Process-wide tally of which collapse rule resolved how many lanes,
#: accumulated across every :func:`simulate_lanes` call.  Diagnostic only:
#: the batch speed benchmark snapshots it around a grid to report the
#: yield of each rule next to the simulated/collapsed counts.
collapse_rule_counts: Counter = Counter()


def simulate_lanes(
    kernel_cls: type,
    tree: TaskTree,
    ao: Ordering,
    eo: Ordering,
    workspace: SimWorkspace | None,
    lanes: Sequence[tuple[int, float]],
    native: bool | None = None,
    repetitions: int = 1,
) -> list[tuple[ScheduleResult, int]]:
    """Simulate every ``(processors, memory limit)`` lane of one tree.

    Lanes are resolved in rounds: each round simulates, per distinct memory
    limit, the largest-``p`` unresolved lane, one call per lane (C when
    ``native`` resolves to the compiled kernels, else
    :func:`~repro.schedulers.engine.simulate_kernel`), then applies the
    collapse rules of the module docstring to resolve followers without
    simulating them.  Returns one ``(result, back)`` pair per lane, in lane
    order: a clone shares the schedule arrays of the representative
    ``back`` lanes before it, and a representative has ``back == 0`` (so
    ``bool(back)`` says whether a lane is a clone).  A simulated lane
    repeats its call ``repetitions`` times, each on fresh state, and keeps
    the fastest wall-clock (``SweepConfig.timing_repetitions``).  The
    results are bit-identical to running the scheduler of ``kernel_cls``
    per instance — wall-clock ``scheduling_seconds`` aside — except that
    ``peak_memory`` is left ``nan``, as the schedulers leave it with
    ``peak_on_run`` off: the batched backend takes a representative's peak
    from its record's schedule check and copies it to the clones.
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
    twin = native_twin(kernel_cls)
    kernels = None if twin is None else native_mod.native_kernels(native)
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
            best = math.inf
            for _ in range(repetitions):
                tic = perf_counter()
                if kernels is None:
                    sim = simulate_kernel(
                        kernel_cls(workspace, limits[index], template),
                        procs[index],
                        starve_init,
                    )
                else:
                    sim = native_mod.simulate(
                        kernels,
                        twin,
                        planes,
                        procs[index],
                        limits[index],
                        starve_init=starve_init,
                    )
                best = min(best, perf_counter() - tic)
                # Every call returns the same outcome; keep the first.
                sims.setdefault(index, sim)
            seconds[index] = best
            pending.discard(index)
        try_collapse()

    outcomes: list[tuple[ScheduleResult, int]] = []
    # Every clone shares its simulated lane's outcome; the first lane of
    # each outcome in lane order is its representative.
    representative: dict[int, int] = {}
    for lane in range(B):
        src = clone_of.get(lane, lane)
        sim = sims[src]
        result = result_from_outcome(
            kernel_cls.name, sim, procs[lane], limits[lane], ao, eo, seconds[src]
        )
        back = lane - representative.setdefault(src, lane)
        outcomes.append((result, back))
    return outcomes
