"""MemBooking: the dynamic memory-booking heuristic of the paper (Section 4).

MemBooking activates tasks following the activation order ``AO`` like the
simple Activation policy, but activating a task ``i`` does **not** book the
full ``n_i + f_i``: it only books what the subtree of ``i`` cannot provide
later by itself (``MissingMem_i``), because the memory used by descendants of
``i`` will be recycled when they complete.  Conversely, when a task ``j``
finishes, the memory it was using is re-dispatched As-Late-As-Possible along
its ancestor chain: an ancestor ``a`` only receives the part of ``j``'s
memory that the rest of ``a``'s subtree will not be able to provide
(``C_{j,a}``), the rest being returned to the global pool.

Two per-node quantities drive the bookkeeping (Section 4):

``Booked[i]``
    memory currently booked *for* node ``i`` (its contribution to ``MBooked``);
``BookedBySubtree[i]``
    memory currently booked by the whole subtree rooted at ``i``; a node is
    effectively activated once ``BookedBySubtree[i] >= MemNeeded_i``.

Theorem 1: if the sequential execution of ``AO`` fits in ``M``, MemBooking
processes the whole tree within ``M``, for any number of processors and any
execution order ``EO``.

Implementation: a kernel class, driven by the event loop of
:mod:`repro.schedulers.engine`.  All per-node bookkeeping lives in flat
vectors indexed by node id (``Booked``/``BookedBySubtree`` planes, a state
byte-vector, children counters); subtree sums walk the tree's CSR children
plane and the ancestor dispatch walk reads flat parent/fout planes from the
run's :class:`~repro.schedulers.engine.SimWorkspace`.  The global ``MBooked``
ledger is inlined into local floats with the exact arithmetic (fold order,
tolerance, clamps) of the historical
:class:`~repro.schedulers.memory.MemoryLedger`, so the schedules are
bit-identical to :class:`repro.schedulers.reference.ReferenceMemBookingScheduler`
(asserted by the parity suite).

Two kernels are provided, one per scheduler class:

:class:`MemBookingKernel` (:class:`MemBookingScheduler`)
    the optimised version of Appendix B / Section 5.1 — ``CAND`` is a lazy
    heap over AO ranks (stale entries are recognised by the state vector),
    ``BookedBySubtree`` is initialised lazily, children counters
    (``ChNotAct``, ``ChNotFin``) provide O(1) state transitions — giving the
    ``O(n (H + log n))`` bound of Theorem 2;
:class:`MemBookingReferenceKernel` (:class:`MemBookingReferenceScheduler`)
    the same kernel with the literal ``CAND`` structure of Algorithms 2–4, a
    plain set scanned linearly.  It performs exactly the same bookings and
    produces exactly the same schedule; the test-suite uses it to validate
    the optimised data structures.

Note on Algorithm 3 vs Algorithm 6 arithmetic: the reference pseudo-code
(Algorithm 3, line 5) adds ``f_j`` to ``BookedBySubtree[parent(j)]`` while
the complete optimised version (Algorithm 6, line 11) does not.  Only the
latter preserves the invariant of Lemma 3(3)
(``BookedBySubtree[i] = Booked[i] + sum of children BookedBySubtree``), so
both classes follow the Algorithm 6 arithmetic; the invariant is asserted in
the property tests.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Sequence

import numpy as np

from ..analysis.registry import hot_kernel, plane_mutator
from .engine import EventDrivenScheduler, SimWorkspace

__all__ = [
    "MemBookingKernel",
    "MemBookingReferenceKernel",
    "MemBookingScheduler",
    "MemBookingReferenceScheduler",
    "dispatch_memory",
    "run_membooking_activation",
    "UN",
    "CAND",
    "ACT",
    "RUN",
    "FN",
]

# Node states (Section 4): Unprocessed, Candidate, Activated, Running, Finished.
UN, CAND, ACT, RUN, FN = 0, 1, 2, 3, 4

#: BookedBySubtree sentinel for "not yet computed" (lazy initialisation).
_UNSET = -1.0


@hot_kernel(note="DispatchMemory (Alg. 3/6)")
def dispatch_memory(
    j: int,
    booked: list[float],
    bbs: list[float],
    state: bytearray,
    parent: Sequence[int],
    fout: Sequence[float],
    mem_needed: Sequence[float],
    mbooked: float,
    tol: float,
    peak: float,
    dispatch_to_candidates: bool,
) -> tuple[float, float]:
    """``DispatchMemory`` (Algorithm 3 / Algorithm 6 lines 4-17) as a pure function.

    The ALAP dispatch arithmetic (fold order, tolerance, clamps) of
    :class:`MemBookingKernel`.  ``booked`` / ``bbs`` / ``state`` are mutated
    in place; the updated global ledger ``(mbooked, peak)`` is returned.
    """
    amount = booked[j]
    booked[j] = 0.0
    # MBooked release with the ledger's clamp semantics.
    mbooked = mbooked - amount
    if mbooked < 0.0:
        if mbooked < -tol:
            raise RuntimeError(
                f"released more memory than was booked (booked={mbooked:.6g})"
            )
        mbooked = 0.0
    bbs[j] = 0.0

    i = parent[j]
    if i < 0:
        return mbooked, peak
    fj = fout[j]
    booked[i] += fj
    mbooked += fj  # unenforced book (the freed amount covers it)
    if mbooked > peak:
        peak = mbooked
    amount -= fj

    # Dispatch the remaining freed memory As-Late-As-Possible along the
    # ancestors: an ancestor only keeps what its subtree cannot provide
    # by itself (the contribution C_{j,i}).
    if dispatch_to_candidates:
        while i >= 0 and amount > 1e-12 and bbs[i] != _UNSET:
            contribution = min(amount, max(0.0, mem_needed[i] - (bbs[i] - amount)))
            if contribution > 0.0:
                booked[i] += contribution
                mbooked += contribution
                if mbooked > peak:
                    peak = mbooked
            bbs[i] -= amount - contribution
            amount -= contribution
            i = parent[i]
    else:
        while i >= 0 and amount > 1e-12 and state[i] in (ACT, RUN):
            contribution = min(amount, max(0.0, mem_needed[i] - (bbs[i] - amount)))
            if contribution > 0.0:
                booked[i] += contribution
                mbooked += contribution
                if mbooked > peak:
                    peak = mbooked
            bbs[i] -= amount - contribution
            amount -= contribution
            i = parent[i]
    return mbooked, peak


@hot_kernel(note="UpdateCAND-ACT (Alg. 4/6)")
def run_membooking_activation(
    peek_candidate,
    remove_candidate,
    make_candidate,
    mark_available,
    booked: list[float],
    bbs: list[float],
    state: bytearray,
    parent: Sequence[int],
    mem_needed: Sequence[float],
    offsets: Sequence[int],
    child_nodes: Sequence[int],
    ch_not_act: list[int],
    ch_not_fin: list[int],
    mbooked: float,
    threshold: float,
    peak: float,
    dispatch_to_candidates: bool,
) -> tuple[float, float, int, bool]:
    """``UpdateCAND-ACT`` (Algorithm 4 / Algorithm 6 lines 18-30) as a pure function.

    The candidate-structure specifics stay behind the four callables
    (``peek`` / ``remove`` / ``make_candidate`` / ``mark_available``), which
    is how the optimised heap structure and the reference linear scan drive
    one transition definition.  Returns the
    updated ``(mbooked, peak, activations, blocked_need)``:
    ``activations`` counts the nodes moved into ACT by this call and
    ``blocked_need`` is ``0.0`` when every candidate fit, else the ledger
    level (``MBooked`` plus the missing booking) the blocking candidate
    would have required — truthy exactly when the loop stopped on the
    budget, which the lane engine's collapse rules read.
    """
    activations = 0
    blocked_need = 0.0
    while True:
        node = peek_candidate()
        if node is None:
            break
        if dispatch_to_candidates:
            # Lazy initialisation (Section 5.1): compute BookedBySubtree
            # once; it is then kept up to date by the dispatch walks.
            if bbs[node] == _UNSET:
                total = 0.0
                for c in child_nodes[offsets[node] : offsets[node + 1]]:
                    total += bbs[c]
                bbs[node] = booked[node] + total
            subtree_booked = bbs[node]
        else:
            # Literal Algorithm 4: recompute the subtree booking at every
            # attempt (the dispatch walks do not maintain it for
            # candidates in this variant).
            total = 0.0
            for c in child_nodes[offsets[node] : offsets[node + 1]]:
                total += bbs[c]
            subtree_booked = booked[node] + total
        missing = max(0.0, mem_needed[node] - subtree_booked)
        if mbooked + missing > threshold:
            blocked_need = mbooked + missing
            break  # wait for more memory; activation keeps following AO
        mbooked += missing
        if mbooked > peak:
            peak = mbooked
        booked[node] += missing
        total = 0.0
        for c in child_nodes[offsets[node] : offsets[node + 1]]:
            total += bbs[c]
        bbs[node] = booked[node] + total
        remove_candidate(node)
        state[node] = ACT
        activations += 1
        if ch_not_fin[node] == 0:
            mark_available(node)
        p = parent[node]
        if p >= 0:
            ch_not_act[p] -= 1
            if ch_not_act[p] == 0:
                state[p] = CAND
                make_candidate(p)
    return mbooked, peak, activations, blocked_need


def _noop_remove(node: int) -> None:
    """Lazy candidate removal (the state flip invalidates the heap entry)."""


class MemBookingKernel:
    """One run's state of MemBooking (Section 4, optimised structures).

    ``CAND`` is a plain AO-rank heap with lazy deletion: an entry whose node
    is no longer in state CAND is stale and skipped when it surfaces (a node
    enters CAND at most once, so stale entries can never shadow live ones).
    Every transition :meth:`bind` returns goes through
    :func:`dispatch_memory` / :func:`run_membooking_activation`.  The
    collapse flags are those of
    :class:`~repro.schedulers.activation.ActivationKernel`; ``bound_need``
    is the ledger level (``MBooked`` plus the missing booking) a
    budget-blocked candidate would have required.
    """

    name = "MemBooking"
    #: Compiled twin (repro.native): the full event loop with the lazy-heap
    #: CAND structure, booking walks and ALAP dispatch.  The reference
    #: kernel below stays pure Python on purpose — it is the oracle.
    native_kernel = "membooking"

    @staticmethod
    @plane_mutator(note="builds the run-independent leaf candidate heap")
    def template(workspace: SimWorkspace) -> tuple[bytearray, list[tuple[int, int]]]:
        """State bytes and candidate heap after the leaf setup, which every
        run on the workspace shares."""
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
        template: Any = None,
        *,
        dispatch_to_candidates: bool = True,
    ) -> None:
        if template is None:
            template = self.template(workspace)
        n = workspace.n
        self.workspace = workspace
        limit = self.limit = float(memory_limit)
        # Inlined MemoryLedger (MBooked): identical bound, tolerance, peak
        # tracking and clamp-at-zero semantics, in local floats.
        self.tol = 1e-9 * max(1.0, limit)
        self.threshold = limit + self.tol
        self.dispatch_to_candidates = dispatch_to_candidates
        self.mbooked = 0.0
        self.peak = 0.0
        self.memory_bound = False
        self.bound_need = math.inf
        #: ACTf: a plain (EO rank, node) heap the event loop pops.
        self.ready: list[tuple[int, int]] = []
        #: Not-yet-ACT tasks with every child finished (see ActivationKernel).
        self.orphans = len(workspace.leaves_list)
        self.booked = [0.0] * n
        self.bbs = [_UNSET] * n
        self.state = bytearray(template[0])
        self.cand = template[1].copy()
        self.ch_not_act = workspace.num_children_list.copy()
        self.ch_not_fin = workspace.num_children_list.copy()

    @hot_kernel
    def candidates(self):
        """``(peek, remove, make)``: the operations of the CAND structure."""

        def peek(heap=self.cand, state=self.state):
            while heap:
                node = heap[0][1]
                if state[node] == CAND:
                    return node
                heappop(heap)  # stale entry of an already-activated node
            return None

        def make(node, heap=self.cand, state=self.state, rank=self.workspace.ao_rank_list):
            state[node] = CAND
            heappush(heap, (rank[node], node))

        return peek, _noop_remove, make

    @hot_kernel
    def bind(self):
        """``(activate, on_started, on_finished)`` (see ActivationKernel.bind)."""
        ws = self.workspace
        peek, remove, make = self.candidates()

        def mark(node, ready=self.ready, rank=ws.eo_rank_list):
            heappush(ready, (rank[node], node))

        def activate(
            kernel=self,
            peek=peek,
            remove=remove,
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
            to_candidates=self.dispatch_to_candidates,
            run=run_membooking_activation,
        ):
            kernel.mbooked, kernel.peak, _, bound = run(
                peek, remove, make, mark, booked, bbs, state, parent,
                mem_needed, offsets, child_nodes, ch_not_act, ch_not_fin,
                kernel.mbooked, threshold, kernel.peak, to_candidates,
            )
            if bound:
                kernel.memory_bound = True
                if bound < kernel.bound_need:
                    kernel.bound_need = bound

        def on_started(node, state=self.state):
            state[node] = RUN

        def on_finished(
            nodes,
            kernel=self,
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
            to_candidates=self.dispatch_to_candidates,
            dispatch=dispatch_memory,
        ):
            for node in nodes:
                state[node] = FN
                kernel.mbooked, kernel.peak = dispatch(
                    node, booked, bbs, state, parent, fout, mem_needed,
                    kernel.mbooked, tol, kernel.peak, to_candidates,
                )
                p = parent[node]
                if p >= 0:
                    ch_not_fin[p] -= 1
                    if ch_not_fin[p] == 0:
                        if state[p] == ACT:
                            heappush(ready, (eo_rank[p], p))
                        else:
                            kernel.orphans += 1

        return activate, on_started, on_finished

    def extras(self) -> dict[str, Any]:
        return {"peak_booked_memory": self.peak}

    def invariant_state(self) -> dict[str, Any]:
        tree = self.workspace.tree
        return {
            "booked": np.asarray(self.booked, dtype=np.float64),
            "booked_by_subtree": np.asarray(self.bbs, dtype=np.float64),
            "state": np.frombuffer(bytes(self.state), dtype=np.int8),
            "mbooked": self.mbooked,
            "limit": self.limit,
            "mem_needed": tree.mem_needed,
            "tree": tree,
        }


class MemBookingReferenceKernel(MemBookingKernel):
    """MemBooking with the literal ``CAND`` structure of Algorithms 2–4.

    ``CAND`` is a plain Python set scanned linearly at every activation
    attempt, as in the pseudo-code; everything else is
    :class:`MemBookingKernel`'s.  Only the asymptotic cost of the candidate
    scan differs, so both must produce exactly the same schedule.  Being a
    subclass, it never runs on the C twin.
    """

    name = "MemBookingReference"

    @staticmethod
    @plane_mutator(note="naive reference CAND structure (set-based)")
    def template(workspace: SimWorkspace) -> tuple[bytearray, set[int]]:
        state = bytearray(workspace.n)
        for leaf in workspace.leaves_list:
            state[leaf] = CAND
        return state, set(workspace.leaves_list)

    @plane_mutator(note="naive reference CAND structure (set-based)")
    def candidates(self):
        def peek(cand=self.cand, rank=self.workspace.ao_rank_list):
            if not cand:
                return None
            return min(cand, key=rank.__getitem__)

        def make(node, cand=self.cand, state=self.state):
            state[node] = CAND
            cand.add(node)

        return peek, self.cand.discard, make


class MemBookingScheduler(EventDrivenScheduler):
    """Optimised MemBooking (Appendix B): heap-based CAND / ACTf structures.

    Scheduling cost is ``O(n (H + log n))`` in total (Theorem 2): every node
    is pushed/popped at most once on each heap, dispatch walks are bounded by
    the node depth, and all state transitions use O(1) counters.
    """

    name = "MemBooking"
    kernel = MemBookingKernel

    #: When True, extend the dispatch walk to candidate ancestors whose
    #: ``BookedBySubtree`` has already been computed (the Section 5.1
    #: optimisation); both implementations enable it so they stay identical.
    #: Setting it to False reverts to the literal Algorithm 3 condition
    #: (ancestors in ACT/RUN only) — exposed for the ablation benchmarks.
    dispatch_to_candidates: bool = True

    def __init__(self, *, dispatch_to_candidates: bool | None = None) -> None:
        if dispatch_to_candidates is not None:
            self.dispatch_to_candidates = bool(dispatch_to_candidates)

    def _new_kernel(self, workspace: SimWorkspace, memory_limit: float) -> MemBookingKernel:
        return self.kernel(
            workspace, memory_limit, dispatch_to_candidates=self.dispatch_to_candidates
        )


class MemBookingReferenceScheduler(MemBookingScheduler):
    """Reference MemBooking (Algorithms 2–4) with a naive ``CAND`` structure.

    The pool of available activated tasks is the heap of the optimised
    version (EO ranks are permutations, so the extracted task — the unique
    rank minimiser — is the one the seed's O(n) ``min`` scan took).  The
    test-suite checks on every random instance it draws that both classes
    produce exactly the same schedule.
    """

    name = "MemBookingReference"
    kernel = MemBookingReferenceKernel
