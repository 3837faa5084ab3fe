"""The simple Activation heuristic of Agullo et al. (Algorithm 1, Section 3.1).

The heuristic books, for every *activated* task ``i``, the memory ``n_i +
f_i`` it will eventually need on top of its inputs.  Tasks are activated in
the activation order ``AO`` as long as the bookings fit in ``M``; a task may
execute once it is activated and all of its children have completed.  When a
task finishes, its execution data and its inputs (the outputs of its
children, booked by the children's own activations) are released.

This strategy is safe — it never books less than what a task needs — but it
is very conservative: along a chain it books the execution data of every
task of the chain simultaneously even though they can never run
concurrently, which starves other branches of memory and therefore of
parallelism.  Quantifying that loss (and recovering it with MemBooking) is
the core of the paper.

Implementation: :class:`ActivationKernel`, driven by the event loop of
:mod:`repro.schedulers.engine`.  The per-node state lives in flat vectors
(activation flags, children-remaining counters) indexed by node id; the
booking requests along the AO are a precomputed
:class:`~repro.schedulers.engine.SimWorkspace` plane, and the activation
loop is a **vectorised prefix scan**: a chunked exact ``cumsum`` over the
remaining AO suffix finds every activation the current budget admits in one
NumPy kernel instead of one ledger transaction per node.  The scan
reproduces the sequential ledger arithmetic bit for bit (``cumsum`` is the
same left-fold of IEEE additions the one-at-a-time bookings performed), so
schedules are identical to
:class:`repro.schedulers.reference.ReferenceActivationScheduler` — the
parity suite asserts it.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Any, MutableSequence, Sequence

import numpy as np

from ..analysis.registry import hot_kernel
from .engine import EventDrivenScheduler, SimWorkspace

__all__ = ["ActivationKernel", "ActivationScheduler", "run_activation_scan"]

#: Activations taken one at a time before switching to the vector scan.
#: Most ``activate`` calls admit zero or a couple of nodes — a NumPy kernel
#: for those costs more than it saves — while the large bursts (t = 0, big
#: frees) run through the cumsum scan.
_SCALAR_BURST = 16

#: First vector-scan chunk; doubled while a chunk activates fully, so a
#: burst of k activations costs O(k) scanned entries, not O(n).
_SCAN_CHUNK = 64


@hot_kernel(note="UpdateCAND-ACT transition")
def run_activation_scan(
    pos: int,
    total: int,
    booked: float,
    peak: float,
    threshold: float,
    req_list: Sequence[float],
    req_ao: np.ndarray,
    ao_seq: Sequence[int],
    activated: "MutableSequence[int] | np.ndarray",
    ch_not_fin: "Sequence[int] | np.ndarray",
    eo_rank: Sequence[int],
    ready: list[tuple[int, int]],
) -> tuple[int, float, float]:
    """The ``UpdateCAND-ACT`` transition of Algorithm 1, as a pure function.

    The exact ledger fold of :class:`ActivationKernel`: a scalar burst
    first, then the chunked exact-``cumsum`` prefix scan.  The per-node
    containers are a ``bytearray``/``list`` pair (any mutable sequences
    work) and the arithmetic is pure-Python floats.

    Returns the advanced ``(next position, booked, peak booked)``; activation
    flags are set and newly available tasks pushed onto ``ready`` in place.
    """
    # One-at-a-time burst first (the typical call admits a handful of
    # nodes): exactly the sequential ledger fold.
    burst_end = min(total, pos + _SCALAR_BURST)
    while pos < burst_end:
        grown = booked + req_list[pos]
        if grown > threshold:
            return pos, booked, peak
        booked = grown
        if booked > peak:
            peak = booked
        node = ao_seq[pos]
        activated[node] = 1
        if ch_not_fin[node] == 0:
            heappush(ready, (eo_rank[node], node))
        pos += 1

    # Long activation burst: switch to the vectorised prefix scan over
    # the remaining AO suffix, in doubling chunks.
    if pos < total:
        chunk = _SCAN_CHUNK
        while pos < total:
            end = min(pos + chunk, total)
            seg = req_ao[pos:end]
            # Exact prefix fold: cum[k] is the booked total after the
            # k-th activation of this chunk, the same chain of additions
            # the sequential ledger performed.
            # kernel-ok: loop-alloc (doubling chunk buffer of the exact scan)
            cum = np.empty(seg.size + 1, dtype=np.float64)
            cum[0] = booked
            cum[1:] = seg
            np.cumsum(cum, out=cum)
            over = np.nonzero(cum[1:] > threshold)[0]
            take = int(over[0]) if over.size else seg.size
            if take:
                high = float(cum[1 : take + 1].max())
                if high > peak:
                    peak = high
                booked = float(cum[take])
                for node in ao_seq[pos : pos + take]:
                    activated[node] = 1
                    if ch_not_fin[node] == 0:
                        heappush(ready, (eo_rank[node], node))
                pos += take
            if take < seg.size:
                break
            chunk <<= 1

    return pos, booked, peak


class ActivationKernel:
    """One run's state of the Activation heuristic (Algorithm 1).

    Activation flags are a ``bytearray``, children counters a flat list and
    the ledger Python floats; :meth:`bind` returns the transitions as
    closures over them, whose ``UpdateCAND-ACT`` fold is
    :func:`run_activation_scan`.
    """

    name = "Activation"
    #: Compiled twin (repro.native): the full event loop with this
    #: heuristic's activation scan and release ledger.
    native_kernel = "activation"

    @staticmethod
    def template(workspace: SimWorkspace) -> None:
        """Run-independent state: none, every Activation run starts empty."""
        return None

    def __init__(
        self, workspace: SimWorkspace, memory_limit: float, template: None = None
    ) -> None:
        self.workspace = workspace
        limit = self.limit = float(memory_limit)
        # Inlined MemoryLedger: same bound, tolerance and clamp semantics,
        # kept in local floats instead of method calls on the hot path.
        self.tol = 1e-9 * max(1.0, limit)
        self.threshold = limit + self.tol
        self.booked = 0.0
        self.peak = 0.0
        #: Position of the next node of AO to try to activate.
        self.next = 0
        #: Memory-slack collapse flag: True once an activation attempt was
        #: stopped by the budget (the run is "memory-bound").
        self.memory_bound = False
        #: Blocked-replay certificate: the minimum over every memory-bound
        #: stop of the budget (``booked + next request``) that stop would
        #: have needed to proceed (``inf`` while never bound).
        self.bound_need = math.inf
        #: Ready tasks (activated + all children finished) as a plain
        #: ``(EO rank, node)`` heap the event loop pops.
        self.ready: list[tuple[int, int]] = []
        #: Unactivated tasks whose children have all finished: what a run
        #: with a larger budget *could* have made ready right now.  Leaves
        #: qualify from the start; completions add nodes (the not-activated
        #: branch of ``on_finished``), activation removes them (the event
        #: loop counts the ready-pushes of each ``activate`` call).
        self.orphans = len(workspace.leaves_list)
        self.activated = bytearray(workspace.n)
        self.ch_not_fin = workspace.num_children_list.copy()

    @hot_kernel
    def bind(self):
        """``(activate, on_started, on_finished)``: the run's transitions.

        Everything a transition reads is bound as a parameter default; the
        closures write the ledger scalars back to the kernel, which does
        not hold them in turn (no reference cycle keeps a finished run's
        planes alive).
        """
        ws = self.workspace

        def activate(
            kernel=self,
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
            pos = kernel.next
            if pos >= n:
                return
            booked = kernel.booked
            # The first candidate not fitting is by far the common case
            # mid-run; don't pay a call to the scan to find that out.
            need = booked + req_list[pos]
            if need > threshold:
                kernel.memory_bound = True
                if need < kernel.bound_need:
                    kernel.bound_need = need
                return
            pos, booked, kernel.peak = scan(
                pos, n, booked, kernel.peak, threshold, req_list, req_ao,
                ao_seq, activated, ch_not_fin, eo_rank, ready,
            )
            if pos < n:
                kernel.memory_bound = True  # the scan stopped on the budget
                need = booked + req_list[pos]
                if need < kernel.bound_need:
                    kernel.bound_need = need
            kernel.next = pos
            kernel.booked = booked

        def on_finished(
            nodes,
            kernel=self,
            release=ws.release_list,
            neg_tol=-self.tol,
            parent=ws.parent_list,
            activated=self.activated,
            ch_not_fin=self.ch_not_fin,
            eo_rank=ws.eo_rank_list,
            ready=self.ready,
        ):
            # Free the execution data of each completed node and the inputs
            # it consumed (the outputs of its children, booked when the
            # children were activated).  The node's own output stays booked
            # for the parent.  Releases clamp at zero per node, exactly like
            # the ledger.
            booked = kernel.booked
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
                            kernel.orphans += 1
            kernel.booked = booked

        # Nothing to mark when a task starts.
        return activate, None, on_finished

    def extras(self) -> dict[str, Any]:
        return {"peak_booked_memory": self.peak, "activated": self.next}

    def invariant_state(self) -> dict[str, Any]:
        return {
            "booked": self.booked,
            "limit": self.limit,
            "activated_prefix": self.next,
        }


class ActivationScheduler(EventDrivenScheduler):
    """Algorithm 1 of the paper (the baseline activation policy)."""

    name = "Activation"
    kernel = ActivationKernel
